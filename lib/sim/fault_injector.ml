type fault =
  | Crash_at of float
  | Crash_restart of { at : float; back_at : float }
  | Byzantine_from of float

type plan = (int * fault) list

let apply ~engine ~set_down ~set_byzantine plan =
  List.iter
    (fun (node, fault) ->
      match fault with
      | Crash_at at ->
          ignore (Engine.schedule_at engine ~time:at (fun () -> set_down node true))
      | Crash_restart { at; back_at } ->
          if back_at < at then invalid_arg "Fault_injector: restart before crash";
          ignore (Engine.schedule_at engine ~time:at (fun () -> set_down node true));
          ignore
            (Engine.schedule_at engine ~time:back_at (fun () -> set_down node false))
      | Byzantine_from at ->
          ignore
            (Engine.schedule_at engine ~time:at (fun () -> set_byzantine node true)))
    plan

let of_failed_nodes ?(byzantine = false) ?(at = 0.) nodes =
  List.map
    (fun node -> (node, if byzantine then Byzantine_from at else Crash_at at))
    nodes

let of_downtime node intervals =
  List.map
    (fun (fail, back) ->
      match back with
      | Some back_at -> (node, Crash_restart { at = fail; back_at })
      | None -> (node, Crash_at fail))
    intervals

type outcome = Goes_byzantine | Crashes | Stays_correct

(* One uniform roll per node, partitioned [0, pb) ∪ [pb, pb+pc) ∪ rest.
   Byzantine occupies the low band, so when pb + pc > 1 (both faults
   "certain") the Byzantine outcome wins — the more adversarial fault
   takes precedence, and the node gets exactly one fault. One roll per
   node regardless of outcome keeps the rng stream aligned with
   [Faultmodel.Config.sample]. *)
let sample_outcome rng ~pb ~pc =
  let roll = Prob.Rng.float rng in
  if roll < pb then Goes_byzantine
  else if roll < pb +. pc then Crashes
  else Stays_correct

let sample_plan rng ~crash_probs ~byz_probs =
  if Array.length crash_probs <> Array.length byz_probs then
    invalid_arg "Fault_injector.sample_plan: probability arrays differ in length";
  let plan = ref [] in
  Array.iteri
    (fun u pc ->
      match sample_outcome rng ~pb:byz_probs.(u) ~pc with
      | Goes_byzantine -> plan := (u, Byzantine_from 0.) :: !plan
      | Crashes -> plan := (u, Crash_at 0.) :: !plan
      | Stays_correct -> ())
    crash_probs;
  List.rev !plan
