type t =
  | Static of float
  | Curve of Fault_curve.t
  | Markov of { fail_rate : float; recover_rate : float }

let hours_per_year = 8766.
let max_curve_depth = 8
let max_empirical_points = 64
let max_rate = 1e6
let max_downtime_events = 4096

let ( let* ) = Result.bind

let check name pred msg = if pred then Ok () else Error (name ^ ": " ^ msg)

let finite v = Float.is_finite v

let check_prob name p =
  check name (finite p && p >= 0. && p <= 1.) "must be a probability in [0, 1]"

let check_rate name r =
  check name (finite r && r >= 0. && r <= max_rate)
    (Printf.sprintf "must be a finite rate in [0, %g] per hour" max_rate)

let check_markov_rates ~fail_rate ~recover_rate =
  let* () = check_rate "fail_rate" fail_rate in
  let* () = check_rate "recover_rate" recover_rate in
  check "fail_rate + recover_rate" (fail_rate +. recover_rate > 0.)
    "must be positive"

let rec validate_curve depth curve =
  if depth > max_curve_depth then
    Error (Printf.sprintf "curve: nesting exceeds %d levels" max_curve_depth)
  else
    match curve with
    | Fault_curve.Constant p -> check_prob "constant p" p
    | Fault_curve.Exponential { rate } -> check_rate "exponential rate" rate
    | Fault_curve.Weibull { shape; scale } ->
        let* () =
          check "weibull shape" (finite shape && shape > 0. && shape <= 64.)
            "must be in (0, 64]"
        in
        check "weibull scale" (finite scale && scale > 0.) "must be positive"
    | Fault_curve.Bathtub { infant; useful; wearout; t1; t2 } ->
        let* () =
          check "bathtub t1" (finite t1 && t1 >= 0.) "must be non-negative"
        in
        let* () =
          check "bathtub t2" (finite t2 && t2 >= t1) "must be at least t1"
        in
        let* () = validate_curve (depth + 1) infant in
        let* () = validate_curve (depth + 1) useful in
        validate_curve (depth + 1) wearout
    | Fault_curve.Empirical points ->
        let n = Array.length points in
        let* () =
          check "empirical points" (n >= 1 && n <= max_empirical_points)
            (Printf.sprintf "need 1..%d points" max_empirical_points)
        in
        let rec go i =
          if i >= n then Ok ()
          else
            let t, p = points.(i) in
            let* () =
              check "empirical time" (finite t && t >= 0.) "must be non-negative"
            in
            let* () = check_prob "empirical p" p in
            let* () =
              if i = 0 then Ok ()
              else
                check "empirical times" (fst points.(i - 1) <= t)
                  "must be non-decreasing"
            in
            go (i + 1)
        in
        go 0
    | Fault_curve.Scaled { factor; curve } ->
        let* () =
          check "scaled factor" (finite factor && factor >= 0. && factor <= 1e3)
            "must be in [0, 1000]"
        in
        validate_curve (depth + 1) curve
    | Fault_curve.Shifted { offset; curve } ->
        let* () =
          check "shifted offset" (finite offset && offset >= 0.)
            "must be non-negative"
        in
        validate_curve (depth + 1) curve
    | Fault_curve.Markov_onoff { fail_rate; recover_rate } ->
        check_markov_rates ~fail_rate ~recover_rate

let validate = function
  | Static p as t ->
      let* () = check_prob "static p" p in
      Ok t
  | Curve c as t ->
      let* () = validate_curve 0 c in
      Ok t
  | Markov { fail_rate; recover_rate } as t ->
      let* () = check_markov_rates ~fail_rate ~recover_rate in
      Ok t

let static p = Static (Prob.Math_utils.clamp_prob p)
let markov ~fail_rate ~recover_rate = validate (Markov { fail_rate; recover_rate })

let to_curve = function
  | Static p -> Fault_curve.Constant p
  | Curve c -> c
  | Markov { fail_rate; recover_rate } ->
      Fault_curve.Markov_onoff { fail_rate; recover_rate }

let marginal t at = Fault_curve.eval (to_curve t) at

let is_static = function Static _ -> true | _ -> false

(* Canonical JSON. Field order is fixed and floats render via
   Obs.Json.to_string's %.17g, so encodings are byte-stable and usable
   as cache-key material. *)

let rec curve_to_json = function
  | Fault_curve.Constant p ->
      Obs.Json.Obj [ ("kind", Obs.Json.String "constant"); ("p", Obs.Json.number p) ]
  | Fault_curve.Exponential { rate } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "exponential"); ("rate", Obs.Json.number rate) ]
  | Fault_curve.Weibull { shape; scale } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "weibull");
          ("shape", Obs.Json.number shape);
          ("scale", Obs.Json.number scale) ]
  | Fault_curve.Bathtub { infant; useful; wearout; t1; t2 } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "bathtub");
          ("infant", curve_to_json infant);
          ("useful", curve_to_json useful);
          ("wearout", curve_to_json wearout);
          ("t1", Obs.Json.number t1);
          ("t2", Obs.Json.number t2) ]
  | Fault_curve.Empirical points ->
      let point (t, p) = Obs.Json.List [ Obs.Json.number t; Obs.Json.number p ] in
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "empirical");
          ("points", Obs.Json.List (Array.to_list points |> List.map point)) ]
  | Fault_curve.Scaled { factor; curve } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "scaled");
          ("factor", Obs.Json.number factor);
          ("curve", curve_to_json curve) ]
  | Fault_curve.Shifted { offset; curve } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "shifted");
          ("offset", Obs.Json.number offset);
          ("curve", curve_to_json curve) ]
  | Fault_curve.Markov_onoff { fail_rate; recover_rate } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "markov");
          ("fail_rate", Obs.Json.number fail_rate);
          ("recover_rate", Obs.Json.number recover_rate) ]

let to_json = function
  | Static p ->
      Obs.Json.Obj [ ("kind", Obs.Json.String "static"); ("p", Obs.Json.number p) ]
  | Markov { fail_rate; recover_rate } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "markov");
          ("fail_rate", Obs.Json.number fail_rate);
          ("recover_rate", Obs.Json.number recover_rate) ]
  | Curve c ->
      Obs.Json.Obj [ ("kind", Obs.Json.String "curve"); ("curve", curve_to_json c) ]

let float_field name json =
  match Obs.Json.member name json with
  | Some v -> (
      match Obs.Json.to_float v with
      | Some f -> Ok f
      | None -> Error (name ^ ": expected a number"))
  | None -> Error (name ^ ": missing field")

let rec curve_of_json json =
  let* kind =
    match Obs.Json.member "kind" json with
    | Some k -> (
        match Obs.Json.to_string_opt k with
        | Some s -> Ok s
        | None -> Error "curve kind: expected a string")
    | None -> Error "curve: missing kind"
  in
  match kind with
  | "constant" ->
      let* p = float_field "p" json in
      Ok (Fault_curve.Constant p)
  | "exponential" ->
      let* rate = float_field "rate" json in
      Ok (Fault_curve.Exponential { rate })
  | "weibull" ->
      let* shape = float_field "shape" json in
      let* scale = float_field "scale" json in
      Ok (Fault_curve.Weibull { shape; scale })
  | "bathtub" ->
      let sub name =
        match Obs.Json.member name json with
        | Some v -> curve_of_json v
        | None -> Error ("bathtub: missing " ^ name)
      in
      let* infant = sub "infant" in
      let* useful = sub "useful" in
      let* wearout = sub "wearout" in
      let* t1 = float_field "t1" json in
      let* t2 = float_field "t2" json in
      Ok (Fault_curve.Bathtub { infant; useful; wearout; t1; t2 })
  | "empirical" -> (
      match Obs.Json.member "points" json with
      | None -> Error "empirical: missing points"
      | Some pts -> (
          match Obs.Json.to_list pts with
          | None -> Error "empirical points: expected a list"
          | Some items ->
              let parse_point item =
                match Obs.Json.to_list item with
                | Some [ t; p ] -> (
                    match (Obs.Json.to_float t, Obs.Json.to_float p) with
                    | Some t, Some p -> Ok (t, p)
                    | _ -> Error "empirical point: expected [time, p]")
                | _ -> Error "empirical point: expected [time, p]"
              in
              let rec go acc = function
                | [] -> Ok (Fault_curve.Empirical (Array.of_list (List.rev acc)))
                | item :: rest ->
                    let* pt = parse_point item in
                    go (pt :: acc) rest
              in
              go [] items))
  | "scaled" ->
      let* factor = float_field "factor" json in
      let* curve =
        match Obs.Json.member "curve" json with
        | Some v -> curve_of_json v
        | None -> Error "scaled: missing curve"
      in
      Ok (Fault_curve.Scaled { factor; curve })
  | "shifted" ->
      let* offset = float_field "offset" json in
      let* curve =
        match Obs.Json.member "curve" json with
        | Some v -> curve_of_json v
        | None -> Error "shifted: missing curve"
      in
      Ok (Fault_curve.Shifted { offset; curve })
  | "markov" ->
      let* fail_rate = float_field "fail_rate" json in
      let* recover_rate = float_field "recover_rate" json in
      Ok (Fault_curve.Markov_onoff { fail_rate; recover_rate })
  | other -> Error ("curve: unknown kind '" ^ other ^ "'")

let of_json json =
  let* kind =
    match Obs.Json.member "kind" json with
    | Some k -> (
        match Obs.Json.to_string_opt k with
        | Some s -> Ok s
        | None -> Error "process kind: expected a string")
    | None -> Error "process: missing kind"
  in
  let* t =
    match kind with
    | "static" ->
        let* p = float_field "p" json in
        Ok (Static p)
    | "markov" ->
        let* fail_rate = float_field "fail_rate" json in
        let* recover_rate = float_field "recover_rate" json in
        Ok (Markov { fail_rate; recover_rate })
    | "curve" -> (
        match Obs.Json.member "curve" json with
        | Some v ->
            let* c = curve_of_json v in
            Ok (Curve c)
        | None -> Error "process: missing curve")
    | other -> Error ("process: unknown kind '" ^ other ^ "'")
  in
  validate t

(* Downtime sampling for the simulator: a seed-deterministic list of
   [(fail_time, recover_time option)] intervals within [0, horizon),
   sorted by fail time. [None] means the node never comes back. *)
let sample_downtime rng t ~horizon =
  match t with
  | Static p ->
      if p <= 0. then []
      else if p >= 1. then [ (0., None) ]
      else
        let rate = -.Float.log1p (-.p) /. hours_per_year in
        let fail = Prob.Rng.exponential rng rate in
        if fail < horizon then [ (fail, None) ] else []
  | Curve c ->
      let fail = Telemetry.sample_lifetime rng c in
      if fail < horizon then [ (fail, None) ] else []
  | Markov { fail_rate; recover_rate } ->
      if fail_rate <= 0. then []
      else
        let rec go now acc n =
          if n >= max_downtime_events then List.rev acc
          else
            let fail = now +. Prob.Rng.exponential rng fail_rate in
            if fail >= horizon then List.rev acc
            else if recover_rate <= 0. then List.rev ((fail, None) :: acc)
            else
              let back = fail +. Prob.Rng.exponential rng recover_rate in
              if back >= horizon then List.rev ((fail, None) :: acc)
              else go back ((fail, Some back) :: acc) (n + 1)
        in
        go 0. [] 0
