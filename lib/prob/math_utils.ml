(* Kahan–Babuška (Neumaier) compensation: unlike textbook Kahan, the
   correction also survives terms larger than the running sum, e.g.
   [1; 1e100; 1; -1e100]. *)
type kahan = { sum : float; comp : float }

let kahan_zero = { sum = 0.; comp = 0. }

let kahan_add k x =
  let t = k.sum +. x in
  let comp =
    if Float.abs k.sum >= Float.abs x then k.comp +. ((k.sum -. t) +. x)
    else k.comp +. ((x -. t) +. k.sum)
  in
  { sum = t; comp }

let kahan_total k = k.sum +. k.comp

let kahan_sum a =
  let acc = ref kahan_zero in
  for i = 0 to Array.length a - 1 do
    acc := kahan_add !acc a.(i)
  done;
  kahan_total !acc

(* Exact log-factorials up to 255, then Stirling's series with the
   1/(12n) - 1/(360n^3) correction, which is accurate to ~1e-12 there. *)
let log_factorial_table =
  let t = Array.make 256 0. in
  for n = 2 to 255 do
    t.(n) <- t.(n - 1) +. log (float_of_int n)
  done;
  t

let log_factorial n =
  if n < 256 then log_factorial_table.(n)
  else
    let x = float_of_int n in
    ((x +. 0.5) *. log x) -. x
    +. (0.5 *. log (2. *. Float.pi))
    +. (1. /. (12. *. x))
    -. (1. /. (360. *. (x *. x *. x)))

let log_choose n k =
  if k < 0 || k > n || n < 0 then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

let choose n k =
  if k < 0 || k > n || n < 0 then 0.
  else if k = 0 || k = n then 1.
  else exp (log_choose n k)

let log1mexp x =
  (* log (1 - e^x) for x < 0; split at log 2 per Maechler's note. *)
  if x >= 0. then nan
  else if x > -.Float.log 2. then log (-.Float.expm1 x)
  else Float.log1p (-.exp x)

let logsumexp a =
  let n = Array.length a in
  if n = 0 then neg_infinity
  else begin
    let m = Array.fold_left max neg_infinity a in
    if m = neg_infinity then neg_infinity
    else begin
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. exp (a.(i) -. m)
      done;
      m +. log !acc
    end
  end

let clamp_prob p = if Float.is_nan p then 0. else Float.max 0. (Float.min 1. p)
