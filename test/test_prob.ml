(* Tests for the prob library: numeric substrate, distributions, RNG,
   Poisson binomial, Monte Carlo. *)

open Prob

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* Relative-or-absolute comparison. *)
let approx_equal ~tol a b =
  let diff = Float.abs (a -. b) in
  diff <= tol || diff <= tol *. Float.max (Float.abs a) (Float.abs b)

(* --- Math_utils ---------------------------------------------------- *)

let test_kahan_pathological () =
  (* Adding 10^6 terms of 1e-16 to 1.0 is invisible to naive float
     summation (each addition rounds away); Kahan recovers the 1e-10. *)
  let a = Array.make 1_000_001 1e-16 in
  a.(0) <- 1.;
  let naive = Array.fold_left ( +. ) 0. a in
  let kahan = Math_utils.kahan_sum a in
  check_float ~eps:0. "naive loses the mass" 1. naive;
  check_float ~eps:1e-16 "kahan keeps it" (1. +. 1e-10) kahan

let test_kahan_empty () =
  check_float "empty sum" 0. (Math_utils.kahan_sum [||]);
  check_float "small sum" 6. (Math_utils.kahan_sum [| 1.; 2.; 3. |])

let test_kahan_accumulator_adversarial () =
  (* The classic cancellation sequence: naive left-to-right summation of
     [1; 1e100; 1; -1e100] returns 0; compensated summation keeps the
     two units. The streaming accumulator backs every per-chunk partial
     sum in the parallel engines. *)
  let seq = [ 1.; 1e100; 1.; -1e100 ] in
  let naive = List.fold_left ( +. ) 0. seq in
  let kahan =
    Math_utils.kahan_total
      (List.fold_left Math_utils.kahan_add Math_utils.kahan_zero seq)
  in
  check_float ~eps:0. "naive cancels to 0" 0. naive;
  check_float ~eps:0. "kahan keeps both units" 2. kahan;
  (* Streaming accumulator and array form agree. *)
  check_float ~eps:0. "array form agrees" kahan
    (Math_utils.kahan_sum (Array.of_list seq));
  (* Peters' variant: the compensation must survive alternating signs. *)
  let alt = [ 1e16; 1.; -1e16; 1. ] in
  let streamed =
    Math_utils.kahan_total
      (List.fold_left Math_utils.kahan_add Math_utils.kahan_zero alt)
  in
  check_float ~eps:0. "alternating signs" 2. streamed

(* Log-factorials reach callers through [log_choose]: log C(n, k) =
   log n! - log k! - log (n-k)!. *)
let test_log_factorial_small () =
  check_float "0! = 1!" 0. (Math_utils.log_choose 1 0);
  check_float "5!/(4! 1!)" (log 5.) (Math_utils.log_choose 5 1);
  check_float "5!/(2! 3!)" (log 10.) (Math_utils.log_choose 5 2);
  check_float ~eps:1e-8 "10!/(5! 5!)" (log 252.) (Math_utils.log_choose 10 5)

let test_log_factorial_stirling_continuity () =
  (* The table/Stirling boundary at 256 must be seamless:
     log 256! - log 255! = log 256. *)
  check_float ~eps:1e-9 "continuity at 256" (log 256.) (Math_utils.log_choose 256 1)

let test_log_factorial_negative () =
  Alcotest.(check bool) "negative n is impossible" true
    (Math_utils.log_choose (-1) 0 = neg_infinity)

let test_choose_basics () =
  check_float "C(5,2)" 10. (Math_utils.choose 5 2);
  check_float "C(10,0)" 1. (Math_utils.choose 10 0);
  check_float "C(10,10)" 1. (Math_utils.choose 10 10);
  check_float "C(4,7)=0" 0. (Math_utils.choose 4 7);
  check_float "C(4,-1)=0" 0. (Math_utils.choose 4 (-1));
  Alcotest.(check bool) "C(100,50) to 1e-10 relative" true
    (approx_equal ~tol:1e-10 1.0089134454556417e29
       (Math_utils.choose 100 50))

let test_log_choose_out_of_range () =
  Alcotest.(check bool) "neg_infinity" true (Math_utils.log_choose 3 5 = neg_infinity)

let test_clamp_prob () =
  check_float "below" 0. (Math_utils.clamp_prob (-0.5));
  check_float "above" 1. (Math_utils.clamp_prob 1.5);
  check_float "nan" 0. (Math_utils.clamp_prob nan);
  check_float "inside" 0.25 (Math_utils.clamp_prob 0.25)

let prop_choose_symmetry =
  QCheck.Test.make ~count:200 ~name:"choose symmetry C(n,k)=C(n,n-k)"
    QCheck.(pair (int_range 0 60) (int_range 0 60))
    (fun (n, k) ->
      QCheck.assume (k <= n);
      approx_equal ~tol:1e-9 (Math_utils.choose n k)
        (Math_utils.choose n (n - k)))

let prop_pascal =
  QCheck.Test.make ~count:200 ~name:"Pascal identity"
    QCheck.(pair (int_range 1 50) (int_range 1 50))
    (fun (n, k) ->
      QCheck.assume (k <= n - 1);
      approx_equal ~tol:1e-9
        (Math_utils.choose n k)
        (Math_utils.choose (n - 1) (k - 1) +. Math_utils.choose (n - 1) k))

(* --- Nines --------------------------------------------------------- *)

let test_nines_roundtrip () =
  List.iter
    (fun k ->
      check_float ~eps:1e-6 (Printf.sprintf "%g nines" k) k
        (Nines.of_prob (Nines.to_prob k)))
    [ 1.; 2.; 3.; 4.5; 9. ]

let test_nines_edges () =
  Alcotest.(check bool) "p=1 is inf" true (Nines.of_prob 1. = infinity);
  check_float "p=0 is 0" 0. (Nines.of_prob 0.)

let test_percent_string_paper_cells () =
  (* The exact strings the paper's tables print. *)
  let cases =
    [
      (0.999702, "99.97%");
      (0.99882, "99.88%");
      (0.9953, "99.53%");
      (0.98177, "98.18%");
      (0.9999901495, "99.9990%");
      (0.99902, "99.90%");
      (0.9999664, "99.997%");
      (0.99994659, "99.995%");
      (1.0, "100%");
      (0.0, "0%");
    ]
  in
  List.iter
    (fun (p, expected) ->
      Alcotest.(check string) expected expected (Nines.percent_string p))
    cases

let test_parse_percent () =
  Alcotest.(check (option (float 1e-9))) "basic" (Some 0.9997) (Nines.parse_percent "99.97%");
  Alcotest.(check (option (float 1e-9))) "no sign" (Some 0.5) (Nines.parse_percent "50");
  Alcotest.(check (option (float 1e-9))) "garbage" None (Nines.parse_percent "abc%");
  Alcotest.(check (option (float 1e-9))) "out of range" None (Nines.parse_percent "150%")

let prop_percent_parse_roundtrip =
  QCheck.Test.make ~count:200 ~name:"percent_string parses back close"
    QCheck.(float_bound_inclusive 1.)
    (fun p ->
      match Nines.parse_percent (Nines.percent_string p) with
      | Some q -> Float.abs (p -. q) <= 0.005
      | None -> false)

(* --- Rng ------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0. || x >= 1. then Alcotest.fail "float out of [0,1)"
  done

let test_rng_int_bounds () =
  let rng = Rng.create 8 in
  let seen = Array.make 7 false in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of range";
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values reachable" true (Array.for_all Fun.id seen);
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* Splitting must not alias: the two streams diverge. *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.next_int64 parent = Rng.next_int64 child then incr same
  done;
  Alcotest.(check bool) "child decorrelated" true (!same < 3)

let test_sample_without_replacement () =
  let rng = Rng.create 3 in
  let sample = Rng.sample_without_replacement rng 5 10 in
  Alcotest.(check int) "size" 5 (List.length sample);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare sample));
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 10)) sample;
  Alcotest.check_raises "k > n" (Invalid_argument "Rng.sample_without_replacement")
    (fun () -> ignore (Rng.sample_without_replacement rng 11 10))

let test_shuffle_preserves_elements () =
  let rng = Rng.create 4 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_exponential_mean () =
  let rng = Rng.create 9 in
  let n = 50_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng 2.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean close to 1/rate" true (Float.abs (mean -. 0.5) < 0.01)

(* --- Distribution ---------------------------------------------------- *)

let test_binomial_pmf_closed_form () =
  check_float ~eps:1e-12 "pmf(3,0.5,1)" 0.375 (Distribution.binomial_pmf ~n:3 ~p:0.5 1);
  check_float ~eps:1e-12 "pmf k=0" (0.99 ** 10.)
    (Distribution.binomial_pmf ~n:10 ~p:0.01 0);
  check_float "out of range" 0. (Distribution.binomial_pmf ~n:3 ~p:0.5 4);
  check_float "degenerate p=0" 1. (Distribution.binomial_pmf ~n:5 ~p:0. 0);
  check_float "degenerate p=1" 1. (Distribution.binomial_pmf ~n:5 ~p:1. 5)

let test_binomial_pmf_sums_to_one () =
  List.iter
    (fun (n, p) ->
      let total = ref 0. in
      for k = 0 to n do
        total := !total +. Distribution.binomial_pmf ~n ~p k
      done;
      check_float ~eps:1e-12 (Printf.sprintf "sum n=%d p=%g" n p) 1. !total)
    [ (1, 0.3); (10, 0.01); (50, 0.5); (100, 0.99) ]

let test_binomial_cdf_tail_complement () =
  for k = -1 to 11 do
    let cdf = Distribution.binomial_cdf ~n:10 ~p:0.3 k in
    let tail = Distribution.binomial_tail_ge ~n:10 ~p:0.3 (k + 1) in
    check_float ~eps:1e-12 (Printf.sprintf "complement k=%d" k) 1. (cdf +. tail)
  done

let test_binomial_deep_tail () =
  (* P(X >= 5 | n=9, p=0.01) drives the paper's ten-nines cells; it must
     be accurate in the deep tail. *)
  let tail = Distribution.binomial_tail_ge ~n:9 ~p:0.01 5 in
  Alcotest.(check bool) "around 1.2e-8" true (tail > 1.1e-8 && tail < 1.3e-8)

let test_weibull_shape_one_is_exponential () =
  List.iter
    (fun t ->
      check_float ~eps:1e-12
        (Printf.sprintf "t=%g" t)
        (exp (-.t /. 100.))
        (Distribution.weibull_survival ~shape:1. ~scale:100. t))
    [ 0.; 10.; 100.; 1000. ]

let test_weibull_hazard_shapes () =
  (* Infant mortality: decreasing hazard; wear-out: increasing. *)
  let h_infant t = Distribution.weibull_hazard ~shape:0.5 ~scale:100. t in
  let h_wearout t = Distribution.weibull_hazard ~shape:3. ~scale:100. t in
  Alcotest.(check bool) "infant decreasing" true (h_infant 10. > h_infant 100.);
  Alcotest.(check bool) "wearout increasing" true (h_wearout 10. < h_wearout 100.)

let test_weibull_fit_recovers_parameters () =
  let rng = Rng.create 12 in
  let samples =
    Array.init 20_000 (fun _ -> Distribution.weibull_sample rng ~shape:2. ~scale:500.)
  in
  let shape, scale = Distribution.weibull_fit_censored ~failures:samples ~censored:[||] in
  Alcotest.(check bool) "shape close" true (Float.abs (shape -. 2.) < 0.1);
  Alcotest.(check bool) "scale close" true (Float.abs (scale -. 500.) < 15.)

let test_fit_input_validation () =
  Alcotest.check_raises "weibull one sample"
    (Invalid_argument "Distribution.weibull_fit: need >= 2 samples") (fun () ->
      ignore (Distribution.weibull_fit_censored ~failures:[| 1. |] ~censored:[||]))

let test_censored_fit_validation () =
  let failures = [| 10.; 20.; 30. |] in
  let fit censored = Distribution.weibull_fit_censored ~failures ~censored in
  Alcotest.check_raises "nonpositive censor time"
    (Invalid_argument "Distribution.weibull_fit: nonpositive censor time") (fun () ->
      ignore (fit [| (40., 2); (0., 3) |]));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Distribution.weibull_fit: negative censor count") (fun () ->
      ignore (fit [| (40., -1) |]))

(* Bit patterns, so that two fits agree only when every bit does. *)
let fit_bits (shape, scale) = (Int64.bits_of_float shape, Int64.bits_of_float scale)

(* [(t, n)] groups as the reference takes them: one element per unit. *)
let expand censored =
  Array.concat (Array.to_list (Array.map (fun (t, n) -> Array.make n t) censored))

let check_fit_bits name ~failures ~censored =
  Alcotest.(check (pair int64 int64))
    name
    (fit_bits (Weibull_reference.weibull_fit_censored ~failures ~censored:(expand censored)))
    (fit_bits (Distribution.weibull_fit_censored ~failures ~censored))

let test_censored_fit_empty_groups () =
  let failures = [| 310.; 1200.; 75.; 4400.; 980. |] in
  check_fit_bits "zero survivors" ~failures ~censored:[| (8766., 0) |];
  check_fit_bits "no group" ~failures ~censored:[||];
  (* A group of no units is no unit: its time is not even checked. *)
  check_fit_bits "zero-count groups" ~failures
    ~censored:[| (5000., 0); (8766., 240); (-1., 0) |]

(* Each case draws its times log-uniformly from its own decade range
   inside [1e-3, 1e5] h, so narrow samples (large shapes, powers that
   overflow) and wide ones (small shapes) both occur. The reference
   pays a power and a log per unit on every score evaluation, so group
   sizes lean small: 1 group in 200 draws from the whole 0-20,000. *)
let censored_fit_case =
  let open QCheck.Gen in
  let* lo = float_range (-3.) 5. in
  let* hi = float_range lo 5. in
  let time = map (fun e -> Float.min 1e5 (Float.max 1e-3 (10. ** e))) (float_range lo hi) in
  let count =
    frequency [ (800, int_range 0 40); (195, int_range 0 400); (5, int_range 0 20_000) ]
  in
  let* failures = array_size (int_range 2 40) time in
  let* censored = array_size (int_range 0 3) (pair time count) in
  return (failures, censored)

let prop_censored_fit_matches_reference =
  let print (failures, censored) =
    Printf.sprintf "failures [|%s|] censored [|%s|]"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") failures)))
      (String.concat "; "
         (Array.to_list (Array.map (fun (t, n) -> Printf.sprintf "(%h, %d)" t n) censored)))
  in
  QCheck.Test.make ~count:10_000 ~name:"censored fit = per-unit reference, bit for bit"
    (QCheck.make ~print censored_fit_case)
    (fun (failures, censored) ->
      fit_bits (Distribution.weibull_fit_censored ~failures ~censored)
      = fit_bits (Weibull_reference.weibull_fit_censored ~failures ~censored:(expand censored)))

(* --- Poisson binomial ------------------------------------------------ *)

let test_poisson_binomial_uniform_is_binomial () =
  let probs = Array.make 8 0.2 in
  let pmf = Poisson_binomial.pmf probs in
  for k = 0 to 8 do
    check_float ~eps:1e-12
      (Printf.sprintf "k=%d" k)
      (Distribution.binomial_pmf ~n:8 ~p:0.2 k)
      pmf.(k)
  done

let test_poisson_binomial_sums_to_one () =
  let probs = [| 0.1; 0.9; 0.33; 0.5; 0.01 |] in
  let pmf = Poisson_binomial.pmf probs in
  check_float ~eps:1e-12 "total mass" 1. (Array.fold_left ( +. ) 0. pmf)

let test_poisson_binomial_expectation () =
  let probs = [| 0.1; 0.2; 0.3 |] in
  let pmf = Poisson_binomial.pmf probs in
  let mean = ref 0. in
  Array.iteri (fun k p -> mean := !mean +. (float_of_int k *. p)) pmf;
  check_float ~eps:1e-12 "mean = sum of probs" (Math_utils.kahan_sum probs) !mean

let brute_force_count_prob probs pred =
  (* Enumerate all outcomes directly. *)
  let n = Array.length probs in
  let total = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let p = ref 1. and count = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        p := !p *. probs.(i);
        incr count
      end
      else p := !p *. (1. -. probs.(i))
    done;
    if pred !count then total := !total +. !p
  done;
  !total

let prop_poisson_binomial_matches_enumeration =
  QCheck.Test.make ~count:60 ~name:"DP matches brute-force enumeration"
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let probs = Array.init n (fun _ -> Rng.float rng) in
      let k = if n = 0 then 0 else Rng.int rng (n + 1) in
      let dp = Poisson_binomial.cdf_le probs k in
      let brute = brute_force_count_prob probs (fun c -> c <= k) in
      Float.abs (dp -. brute) < 1e-9)

let test_cdf_tail_edges () =
  let probs = [| 0.5; 0.5 |] in
  check_float "cdf(-1)" 0. (Poisson_binomial.cdf_le probs (-1));
  check_float "cdf(2)" 1. (Poisson_binomial.cdf_le probs 2);
  check_float "cdf(0)" 0.25 (Poisson_binomial.cdf_le probs 0);
  check_float "cdf(1)" 0.75 (Poisson_binomial.cdf_le probs 1)

(* --- Tail bounds ------------------------------------------------------ *)

(* The Chernoff bound is exp (-n KL(k/n || p)): 1 at k/n = p, below 1
   once k/n exceeds p, and undefined for a degenerate p. *)
let test_kl_bernoulli () =
  check_float "zero at a = p" 1. (Bounds.compare_tail ~n:10 ~p:0.3 ~k:3).Bounds.chernoff;
  Alcotest.(check bool) "positive off-diagonal" true
    ((Bounds.compare_tail ~n:10 ~p:0.1 ~k:5).Bounds.chernoff < 1.);
  Alcotest.check_raises "domain" (Invalid_argument "Bounds.kl_bernoulli: arguments out of range")
    (fun () -> ignore (Bounds.compare_tail ~n:10 ~p:0. ~k:5))

let test_bounds_dominate_exact () =
  (* Valid upper bounds, with Chernoff-KL at least as tight as
     Hoeffding. *)
  List.iter
    (fun (n, p, k) ->
      let c = Bounds.compare_tail ~n ~p ~k in
      Alcotest.(check bool) "chernoff >= exact" true (c.Bounds.chernoff >= c.Bounds.exact);
      Alcotest.(check bool) "hoeffding >= chernoff" true
        (c.Bounds.hoeffding >= c.Bounds.chernoff -. 1e-15);
      Alcotest.(check bool) "bounds <= 1" true (c.Bounds.hoeffding <= 1.))
    [ (3, 0.01, 2); (9, 0.08, 5); (100, 0.1, 20); (7, 0.02, 4) ]

let test_bounds_loose_in_consensus_regime () =
  (* The motivating observation: at cluster scale the exponential
     bounds overestimate the failure probability by orders of
     magnitude — Table 2's N=3, p=1% cell would look ~20x worse under
     Chernoff. *)
  let c = Bounds.compare_tail ~n:3 ~p:0.01 ~k:2 in
  Alcotest.(check bool) "chernoff pessimistic (>2x)" true (c.Bounds.chernoff_ratio > 2.);
  Alcotest.(check bool) "hoeffding wildly pessimistic (>100x)" true
    (c.Bounds.hoeffding_ratio > 100.)

let test_bounds_trivial_below_mean () =
  let c = Bounds.compare_tail ~n:10 ~p:0.5 ~k:3 in
  check_float "k below mean" 1. c.Bounds.hoeffding;
  check_float "chernoff too" 1. c.Bounds.chernoff

(* --- Monte Carlo ----------------------------------------------------- *)

let test_wilson_interval_contains_phat () =
  let low, high = Montecarlo.wilson_interval ~successes:70 ~trials:100 in
  Alcotest.(check bool) "contains 0.7" true (low < 0.7 && high > 0.7);
  Alcotest.(check bool) "proper order" true (low < high)

let test_wilson_edges () =
  let low, high = Montecarlo.wilson_interval ~successes:0 ~trials:100 in
  check_float "zero successes lower bound" 0. low;
  Alcotest.(check bool) "zero successes upper > 0" true (high > 0.);
  let low1, high1 = Montecarlo.wilson_interval ~successes:100 ~trials:100 in
  check_float "all successes upper bound" 1. high1;
  Alcotest.(check bool) "all successes lower < 1" true (low1 < 1.);
  let low2, high2 = Montecarlo.wilson_interval ~successes:0 ~trials:0 in
  check_float "no trials low" 0. low2;
  check_float "no trials high" 1. high2

(* --- Incremental Poisson binomial ---------------------------------- *)

let sup_distance a b =
  let worst = ref 0. in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. b.(i)))) a;
  !worst

(* Factor generator that lands exactly on 0 and 1 often enough to
   exercise the degenerate divide-out paths, and hugs 0.5 (the worst
   conditioning for the recurrence) some of the time. *)
let gen_factor =
  QCheck.Gen.(
    frequency
      [
        (2, return 0.);
        (2, return 1.);
        (3, float_range 0.45 0.55);
        (10, float_bound_inclusive 1.);
      ])

let gen_incremental_case =
  QCheck.Gen.(
    int_range 1 40 >>= fun n ->
    array_repeat n gen_factor >>= fun probs ->
    list_size (int_range 0 30) (pair (int_range 0 (n - 1)) gen_factor)
    >>= fun updates -> return (probs, updates))

let arb_incremental_case =
  QCheck.make gen_incremental_case
    ~print:(fun (probs, updates) ->
      Printf.sprintf "probs=[%s] updates=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_float probs)))
        (String.concat ";"
           (List.map (fun (i, p) -> Printf.sprintf "(%d,%f)" i p) updates)))

let prop_incremental_matches_scratch =
  QCheck.Test.make ~count:300
    ~name:"incremental updates match from-scratch DP to 1e-12"
    arb_incremental_case
    (fun (probs, updates) ->
      (* A drift bound below the tolerance makes the 1e-12 agreement a
         contract the engine must keep by refreshing, not luck. *)
      let t = Incremental.create ~drift_bound:1e-13 probs in
      List.iter (fun (i, p) -> Incremental.update t i p) updates;
      let scratch = Poisson_binomial.pmf (Incremental.probs t) in
      sup_distance (Incremental.pmf t) scratch <= 1e-12
      && Incremental.sup_distance_from_scratch t
         <= Incremental.drift_bound t +. 1e-13)

let prop_incremental_inverse_law =
  (* Divide-out then multiply-in of the same factor is the identity:
     perturbing factor i and restoring its original value must land
     back on the original distribution. *)
  QCheck.Test.make ~count:300 ~name:"divide-out/multiply-in inverse law"
    QCheck.(
      make
        Gen.(
          int_range 1 40 >>= fun n ->
          array_repeat n gen_factor >>= fun probs ->
          int_range 0 (n - 1) >>= fun i ->
          gen_factor >>= fun p -> return (probs, i, p)))
    (fun (probs, i, p) ->
      let t = Incremental.create ~drift_bound:1e-13 probs in
      let before = Incremental.pmf t in
      let original = Incremental.prob t i in
      Incremental.update t i p;
      Incremental.update t i original;
      sup_distance (Incremental.pmf t) before <= 1e-12)

let test_incremental_edge_factors () =
  (* Dead (p=1) and perfect (p=0) factors take the shift paths in the
     divide-out; toggling across them must stay exact. *)
  let t = Incremental.create [| 0.; 1.; 0.3; 1.; 0. |] in
  Alcotest.(check (float 0.)) "two certain failures" 0. (Incremental.cdf_le t 1);
  Incremental.update t 1 0.;
  Incremental.update t 3 0.25;
  Incremental.update t 0 1.;
  Incremental.update t 4 0.5;
  let scratch = Poisson_binomial.pmf (Incremental.probs t) in
  Alcotest.(check bool) "matches scratch after 0/1 toggles" true
    (sup_distance (Incremental.pmf t) scratch <= 1e-12);
  check_float ~eps:1e-12 "expectation" (1. +. 0.3 +. 0.25 +. 0.5)
    (Incremental.expectation t)

let test_incremental_forced_refresh () =
  (* drift_bound = 0 forces a full-DP refresh after every effective
     update; the refreshed state must equal a fresh create. *)
  let rng = Rng.create 11 in
  let probs = Array.init 25 (fun _ -> Rng.float rng) in
  let t = Incremental.create ~drift_bound:0. probs in
  for _ = 1 to 40 do
    Incremental.update t (Rng.int rng 25) (Rng.float rng)
  done;
  Alcotest.(check int) "every update refreshed" (Incremental.update_count t)
    (Incremental.refresh_count t);
  check_float ~eps:0. "drift reset" 0. (Incremental.drift t);
  let fresh = Incremental.create (Incremental.probs t) in
  check_float ~eps:0. "refreshed state equals fresh create" 0.
    (sup_distance (Incremental.pmf t) (Incremental.pmf fresh))

let test_incremental_drift_accounting () =
  let t = Incremental.create (Array.make 10 0.2) in
  check_float ~eps:0. "starts clean" 0. (Incremental.drift t);
  Incremental.update t 0 0.4;
  Alcotest.(check bool) "update accrues drift" true (Incremental.drift t > 0.);
  Incremental.update t 0 0.4;
  Alcotest.(check int) "no-op update skipped" 1 (Incremental.update_count t);
  let before = Incremental.drift t in
  Incremental.update_batch t [ (1, 0.9); (2, 0.); (3, 1.) ];
  Alcotest.(check int) "batch counted" 4 (Incremental.update_count t);
  Alcotest.(check bool) "batch accrues drift" true (Incremental.drift t > before);
  Incremental.refresh t;
  check_float ~eps:0. "refresh resets drift" 0. (Incremental.drift t);
  Alcotest.(check int) "refresh counted" 1 (Incremental.refresh_count t);
  check_float ~eps:0. "divergence after refresh" 0.
    (Incremental.sup_distance_from_scratch t)

let test_incremental_queries_match_reference () =
  let probs = [| 0.1; 0.5; 0.9; 0.02; 0.7 |] in
  let t = Incremental.create probs in
  for k = 0 to 5 do
    check_float ~eps:1e-14
      (Printf.sprintf "cdf_le %d" k)
      (Poisson_binomial.cdf_le probs k)
      (Incremental.cdf_le t k)
  done;
  check_float ~eps:1e-14 "expectation" (Math_utils.kahan_sum probs)
    (Incremental.expectation t)

let suite =
  [
    Alcotest.test_case "kahan pathological" `Slow test_kahan_pathological;
    Alcotest.test_case "kahan empty/list" `Quick test_kahan_empty;
    Alcotest.test_case "kahan adversarial" `Quick test_kahan_accumulator_adversarial;
    Alcotest.test_case "log_factorial small" `Quick test_log_factorial_small;
    Alcotest.test_case "log_factorial continuity" `Quick test_log_factorial_stirling_continuity;
    Alcotest.test_case "log_factorial negative" `Quick test_log_factorial_negative;
    Alcotest.test_case "choose basics" `Quick test_choose_basics;
    Alcotest.test_case "log_choose out of range" `Quick test_log_choose_out_of_range;
    Alcotest.test_case "clamp_prob" `Quick test_clamp_prob;
    QCheck_alcotest.to_alcotest prop_choose_symmetry;
    QCheck_alcotest.to_alcotest prop_pascal;
    Alcotest.test_case "nines roundtrip" `Quick test_nines_roundtrip;
    Alcotest.test_case "nines edges" `Quick test_nines_edges;
    Alcotest.test_case "percent_string paper cells" `Quick test_percent_string_paper_cells;
    Alcotest.test_case "parse_percent" `Quick test_parse_percent;
    QCheck_alcotest.to_alcotest prop_percent_parse_roundtrip;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "shuffle preserves elements" `Quick test_shuffle_preserves_elements;
    Alcotest.test_case "exponential sampler mean" `Slow test_exponential_mean;
    Alcotest.test_case "binomial pmf closed form" `Quick test_binomial_pmf_closed_form;
    Alcotest.test_case "binomial pmf sums to one" `Quick test_binomial_pmf_sums_to_one;
    Alcotest.test_case "binomial cdf/tail complement" `Quick test_binomial_cdf_tail_complement;
    Alcotest.test_case "binomial deep tail" `Quick test_binomial_deep_tail;
    Alcotest.test_case "weibull shape 1 = exponential" `Quick test_weibull_shape_one_is_exponential;
    Alcotest.test_case "weibull hazard shapes" `Quick test_weibull_hazard_shapes;
    Alcotest.test_case "weibull fit" `Slow test_weibull_fit_recovers_parameters;
    Alcotest.test_case "fit input validation" `Quick test_fit_input_validation;
    Alcotest.test_case "poisson-binomial uniform = binomial" `Quick
      test_poisson_binomial_uniform_is_binomial;
    Alcotest.test_case "poisson-binomial mass" `Quick test_poisson_binomial_sums_to_one;
    Alcotest.test_case "poisson-binomial expectation" `Quick test_poisson_binomial_expectation;
    QCheck_alcotest.to_alcotest prop_poisson_binomial_matches_enumeration;
    Alcotest.test_case "cdf/tail edges" `Quick test_cdf_tail_edges;
    Alcotest.test_case "kl bernoulli" `Quick test_kl_bernoulli;
    Alcotest.test_case "bounds dominate exact" `Quick test_bounds_dominate_exact;
    Alcotest.test_case "bounds loose at cluster scale" `Quick
      test_bounds_loose_in_consensus_regime;
    Alcotest.test_case "bounds trivial below mean" `Quick test_bounds_trivial_below_mean;
    Alcotest.test_case "wilson interval" `Quick test_wilson_interval_contains_phat;
    Alcotest.test_case "wilson edges" `Quick test_wilson_edges;
    QCheck_alcotest.to_alcotest prop_incremental_matches_scratch;
    QCheck_alcotest.to_alcotest prop_incremental_inverse_law;
    Alcotest.test_case "incremental edge factors" `Quick test_incremental_edge_factors;
    Alcotest.test_case "incremental forced refresh" `Quick test_incremental_forced_refresh;
    Alcotest.test_case "incremental drift accounting" `Quick test_incremental_drift_accounting;
    Alcotest.test_case "incremental queries" `Quick test_incremental_queries_match_reference;
    Alcotest.test_case "censored fit validation" `Quick test_censored_fit_validation;
    Alcotest.test_case "censored fit empty groups" `Quick test_censored_fit_empty_groups;
    QCheck_alcotest.to_alcotest prop_censored_fit_matches_reference;
  ]
