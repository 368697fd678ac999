type outcome = Pass | Fail of { invariant : string; detail : string }
type measure = { units : int; weight : float }

(* Lexicographic: fewer discrete pieces always wins; at equal piece
   count a smaller numeric weight (zeroed probability, narrowed
   latency window) still counts as progress. Acceptance on [smaller]
   is what makes the shrink loop monotone and terminating regardless
   of what a system's candidate list proposes. *)
let smaller a b = a.units < b.units || (a.units = b.units && a.weight < b.weight)

type 'case system = {
  name : string;
  generate : Prob.Rng.t -> 'case;
  run : 'case -> outcome;
  candidates : 'case -> 'case list;
  size : 'case -> measure;
  faults : 'case -> int;
  ops : 'case -> int;
  encode : 'case -> Repro.parts;
  decode : Repro.parts -> ('case, string) result;
}

type 'case failure = {
  episode : int;
  episode_seed : int;
  case : 'case;
  invariant : string;
  detail : string;
}

type 'case shrunk = {
  final : 'case;
  final_detail : string;
  steps : 'case list;
  attempts : int;
}

type 'case soak_outcome =
  | All_passed of { episodes : int }
  | Found of { failure : 'case failure; shrunk : 'case shrunk option }

(* Mix the episode index into its own SplitMix stream so episode k is
   replayable in isolation and inserting episodes never perturbs later
   ones. *)
let episode_seed ~seed ~episode =
  Int64.to_int (Prob.Rng.next_int64 (Prob.Rng.of_pair seed episode))

let run_episode sys ~seed ~episode =
  let eseed = episode_seed ~seed ~episode in
  let case = sys.generate (Prob.Rng.create eseed) in
  (case, sys.run case)

let no_log (_ : string) = ()

let shrink ?(max_attempts = 2000) ?(log = no_log) sys failure =
  let attempts = ref 0 in
  let rec fixpoint current detail steps =
    let cur_size = sys.size current in
    let rec try_candidates = function
      | [] -> { final = current; final_detail = detail; steps = List.rev steps;
                attempts = !attempts }
      | cand :: rest ->
          if !attempts >= max_attempts then
            { final = current; final_detail = detail; steps = List.rev steps;
              attempts = !attempts }
          else if not (smaller (sys.size cand) cur_size) then try_candidates rest
          else begin
            incr attempts;
            match sys.run cand with
            | Fail { invariant; detail = d } when invariant = failure.invariant ->
                let m = sys.size cand in
                log
                  (Printf.sprintf
                     "shrink: accepted reduction to %d units (weight %g) after \
                      %d attempts"
                     m.units m.weight !attempts);
                fixpoint cand d (cand :: steps)
            | _ -> try_candidates rest
          end
    in
    if !attempts >= max_attempts then
      { final = current; final_detail = detail; steps = List.rev steps;
        attempts = !attempts }
    else try_candidates (sys.candidates current)
  in
  fixpoint failure.case failure.detail []

let shrink_failure = shrink

let soak ?(shrink = true) ?max_attempts ?(log = no_log) sys ~seed ~episodes =
  let shrink_enabled = shrink in
  let rec go episode =
    if episode >= episodes then All_passed { episodes }
    else begin
      let eseed = episode_seed ~seed ~episode in
      let case = sys.generate (Prob.Rng.create eseed) in
      match sys.run case with
      | Pass ->
          log (Printf.sprintf "episode %d/%d: pass" (episode + 1) episodes);
          go (episode + 1)
      | Fail { invariant; detail } ->
          let m = sys.size case in
          log
            (Printf.sprintf
               "episode %d/%d: FAIL invariant %s (%d units, weight %g): %s"
               (episode + 1) episodes invariant m.units m.weight detail);
          let failure = { episode; episode_seed = eseed; case; invariant; detail } in
          let shrunk_result =
            if shrink_enabled then begin
              let s = shrink_failure ?max_attempts ~log sys failure in
              let fm = sys.size s.final in
              log
                (Printf.sprintf
                   "shrink: minimal case has %d units (weight %g) after %d \
                    candidate runs"
                   fm.units fm.weight s.attempts);
              Some s
            end
            else None
          in
          Found { failure; shrunk = shrunk_result }
    end
  in
  go 0

let to_repro sys ~seed ~elapsed_seconds failure shrunk =
  let original = sys.size failure.case in
  let final_case, final_detail, attempts =
    match shrunk with
    | Some s -> (s.final, s.final_detail, s.attempts)
    | None -> (failure.case, failure.detail, 0)
  in
  let final_size = sys.size final_case in
  {
    Repro.seed;
    episode = failure.episode;
    episode_seed = failure.episode_seed;
    system = sys.name;
    invariant = failure.invariant;
    detail = final_detail;
    expect = `Fail;
    parts = sys.encode final_case;
    shrink_attempts = attempts;
    original_units = original.units;
    original_weight = original.weight;
    shrunk_units = final_size.units;
    shrunk_weight = final_size.weight;
    elapsed_seconds;
  }

let replay sys (repro : Repro.t) =
  if repro.Repro.system <> sys.name then
    Error
      (Printf.sprintf "artifact is for system %S, not %S" repro.Repro.system
         sys.name)
  else
    match sys.decode repro.Repro.parts with
    | Error msg -> Error ("undecodable case: " ^ msg)
    | Ok case -> (
        match (sys.run case, repro.Repro.expect) with
        | Fail { invariant; detail }, `Fail
          when invariant = repro.Repro.invariant ->
            Ok
              (Printf.sprintf "reproduced: invariant %s still fails (%s)"
                 invariant detail)
        | Fail { invariant; detail }, `Fail ->
            Error
              (Printf.sprintf
                 "fails the wrong invariant: recorded %s, observed %s (%s)"
                 repro.Repro.invariant invariant detail)
        | Pass, `Fail ->
            Error
              (Printf.sprintf
                 "no longer reproduces: invariant %s held on replay"
                 repro.Repro.invariant)
        | Pass, `Pass ->
            Ok
              (Printf.sprintf "regression holds: invariant %s passes"
                 repro.Repro.invariant)
        | Fail { invariant; detail }, `Pass ->
            Error
              (Printf.sprintf
                 "regressed: invariant %s fails again (%s)" invariant detail))
