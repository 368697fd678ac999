type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let of_pair seed index =
  (* Jump the SplitMix stream for [seed] to position [index + 1], then
     re-mix: streams for distinct indices are as far apart as [split]
     would place them, but reachable in O(1) from the pair alone. *)
  let base = mix (Int64.of_int seed) in
  let jumped = Int64.add base (Int64.mul golden_gamma (Int64.of_int (index + 1))) in
  { state = mix jumped }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = mix (next_int64 t) }

let float t =
  (* 53 high bits -> [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for the
     bounds used in this toolkit (cluster sizes), but we reject anyway. *)
  let mask = Int64.of_int max_int in
  let rec go () =
    let v = Int64.to_int (Int64.logand (next_int64 t) mask) in
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then go () else r
  in
  go ()

let bool t p = float t < p

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.Float.log1p (-.float t) /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n || k < 0 then invalid_arg "Rng.sample_without_replacement";
  let a = Array.init n (fun i -> i) in
  (* Partial Fisher-Yates: only the first k slots need settling. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)
