(* Raw per-request samples and the order statistics computed from them.

   Percentiles come from the samples themselves, never from a bucketed
   histogram: the metrics registry's quarter-power-of-two buckets are
   about 19% wide, wider than the bounds the benchmark gates on. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.; len = 0 }

let add t v =
  if t.len = Array.length t.data then (
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger);
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let length t = t.len
let clear t = t.len <- 0
let to_array t = Array.sub t.data 0 t.len

let sorted_of_list ts =
  let a = Array.concat (List.map to_array ts) in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two closest ranks of sorted data. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let w = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. w)) +. (sorted.(hi) *. w)

let median sorted = quantile sorted 0.5

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let tail_candidates = [ 99.; 98.; 97.5; 95.; 90.; 75.; 50. ]

(* The highest percentile with at least ten samples beyond it, and its
   value; the median when even that is not supported. *)
let tail sorted =
  let n = float_of_int (Array.length sorted) in
  let pct =
    match
      List.find_opt (fun p -> n *. (1. -. (p /. 100.)) >= 10.) tail_candidates
    with
    | Some p -> p
    | None -> 50.
  in
  (pct, quantile sorted (pct /. 100.))

(* Mean cost in microseconds of one call to [f], over calls cycling
   through [inputs] for at least [budget] seconds. *)
let per_call_us ?(budget = 0.05) inputs f =
  let n = Array.length inputs in
  if n = 0 then 0.
  else
    let t0 = Unix.gettimeofday () in
    let calls = ref 0 in
    let elapsed = ref 0. in
    while !elapsed < budget do
      for _ = 1 to 64 do
        ignore (Sys.opaque_identity (f inputs.(!calls mod n)));
        incr calls
      done;
      elapsed := Unix.gettimeofday () -. t0
    done;
    !elapsed *. 1e6 /. float_of_int !calls

(* Median wall time in milliseconds of [f] applied once to each input. *)
let median_ms inputs f =
  if inputs = [] then 0.
  else
    let times =
      List.map
        (fun x ->
          let t0 = Unix.gettimeofday () in
          ignore (Sys.opaque_identity (f x));
          (Unix.gettimeofday () -. t0) *. 1000.)
        inputs
      |> Array.of_list
    in
    Array.sort Float.compare times;
    median times
