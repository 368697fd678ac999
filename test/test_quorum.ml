(* Tests for the quorum library: bitmask subsets, quorum systems,
   Naor-Wool metrics, probabilistic quorums. *)

open Quorum

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- Subset ---------------------------------------------------------- *)

let test_subset_basics () =
  let s = Subset.of_list [ 0; 2; 5 ] in
  Alcotest.(check bool) "mem 2" true (Subset.mem s 2);
  Alcotest.(check bool) "not mem 1" false (Subset.mem s 1);
  Alcotest.(check int) "cardinal" 3 (Subset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 2; 5 ] (Subset.to_list s);
  Alcotest.(check int) "add idempotent" s (Subset.add s 2);
  Alcotest.(check int) "remove" (Subset.of_list [ 0; 5 ]) (Subset.remove s 2)

let test_subset_algebra () =
  let a = Subset.of_list [ 0; 1; 2 ] and b = Subset.of_list [ 2; 3 ] in
  Alcotest.(check int) "inter" (Subset.of_list [ 2 ]) (Subset.inter a b);
  Alcotest.(check bool) "subset yes" true (Subset.subset (Subset.of_list [ 0; 1 ]) a);
  Alcotest.(check bool) "subset no" false (Subset.subset b a);
  Alcotest.(check int) "complement" (Subset.of_list [ 3; 4 ])
    (Subset.complement 5 a)

let test_iter_subsets_count () =
  let count = ref 0 in
  Subset.iter_subsets 10 (fun _ -> incr count);
  Alcotest.(check int) "2^10 subsets" 1024 !count;
  Alcotest.check_raises "too large"
    (Invalid_argument "Subset.iter_subsets: universe too large for enumeration")
    (fun () -> Subset.iter_subsets 30 ignore)

let test_iter_ksubsets () =
  let count = ref 0 and all_distinct = Hashtbl.create 16 in
  Subset.iter_ksubsets 8 3 (fun s ->
      incr count;
      Alcotest.(check int) "cardinal 3" 3 (Subset.cardinal s);
      if Hashtbl.mem all_distinct s then Alcotest.fail "duplicate subset";
      Hashtbl.add all_distinct s ());
  Alcotest.(check int) "C(8,3)" 56 !count;
  let zero = ref 0 in
  Subset.iter_ksubsets 5 0 (fun s ->
      incr zero;
      Alcotest.(check int) "empty subset" 0 s);
  Alcotest.(check int) "one empty subset" 1 !zero;
  let none = ref 0 in
  Subset.iter_ksubsets 3 5 (fun _ -> incr none);
  Alcotest.(check int) "k > n yields none" 0 !none

(* --- Quorum systems ---------------------------------------------------- *)

let test_majority_system () =
  let qs = Quorum_system.majority 5 in
  Alcotest.(check int) "min quorum" 3 (Quorum_system.min_quorum_size qs);
  Alcotest.(check bool) "3 live is quorum" true
    (Quorum_system.contains_quorum qs (Subset.of_list [ 0; 2; 4 ]));
  Alcotest.(check bool) "2 live is not" false
    (Quorum_system.contains_quorum qs (Subset.of_list [ 0; 2 ]));
  Alcotest.(check bool) "self-intersecting" true (Quorum_system.intersects_in qs qs >= 1)

let test_threshold_intersection_formula () =
  let a = Quorum_system.Threshold { n = 10; k = 6 } in
  let b = Quorum_system.Threshold { n = 10; k = 7 } in
  Alcotest.(check int) "6+7-10" 3 (Quorum_system.intersects_in a b);
  let c = Quorum_system.Threshold { n = 10; k = 4 } in
  Alcotest.(check int) "disjoint possible" 0 (Quorum_system.intersects_in c c);
  Alcotest.(check bool) "4-of-10 not intersecting" false
    (Quorum_system.intersects_in c c >= 1)

let test_threshold_intersection_matches_bruteforce () =
  (* The closed form must agree with explicit minimal-quorum pairs. *)
  List.iter
    (fun (n, k1, k2) ->
      let a = Quorum_system.Threshold { n; k = k1 } in
      let b = Quorum_system.Threshold { n; k = k2 } in
      let explicit_a = Quorum_system.Explicit { n; quorums = Quorum_system.minimal_quorums a } in
      let explicit_b = Quorum_system.Explicit { n; quorums = Quorum_system.minimal_quorums b } in
      Alcotest.(check int)
        (Printf.sprintf "n=%d k1=%d k2=%d" n k1 k2)
        (Quorum_system.intersects_in explicit_a explicit_b)
        (Quorum_system.intersects_in a b))
    [ (5, 3, 3); (5, 4, 2); (7, 4, 4); (6, 3, 3); (6, 4, 5) ]

let test_grid_quorums_intersect () =
  let qs = Quorum_system.Grid { rows = 3; cols = 3 } in
  Alcotest.(check int) "min quorum" 5 (Quorum_system.min_quorum_size qs);
  Alcotest.(check int) "9 minimal quorums" 9
    (List.length (Quorum_system.minimal_quorums qs));
  Alcotest.(check bool) "pairwise intersect" true (Quorum_system.intersects_in qs qs >= 1);
  (* A full row plus a full column is a quorum... *)
  let quorum = Subset.of_list [ 0; 1; 2; 3; 6 ] (* row 0 + column 0 *) in
  Alcotest.(check bool) "row+col" true (Quorum_system.contains_quorum qs quorum);
  (* ...a bare row is not. *)
  Alcotest.(check bool) "row only" false
    (Quorum_system.contains_quorum qs (Subset.of_list [ 0; 1; 2 ]))

let test_weighted_minimal_quorums () =
  let qs = Quorum_system.Weighted { weights = [| 3; 2; 2; 1 |]; threshold = 4 } in
  let minimal = Quorum_system.minimal_quorums qs in
  (* Every minimal quorum meets the threshold and loses it if any
     member is removed. *)
  List.iter
    (fun q ->
      Alcotest.(check bool) "meets threshold" true (Quorum_system.contains_quorum qs q);
      List.iter
        (fun u ->
          Alcotest.(check bool) "minimal" false
            (Quorum_system.contains_quorum qs (Subset.remove q u)))
        (Subset.to_list q))
    minimal;
  (* {0,1} (weight 5) is minimal; {0} is not a quorum. *)
  Alcotest.(check bool) "{0,1} minimal" true
    (List.mem (Subset.of_list [ 0; 1 ]) minimal);
  Alcotest.(check bool) "{0} not quorum" false
    (Quorum_system.contains_quorum qs (Subset.of_list [ 0 ]))

let test_availability_threshold_closed_form () =
  let qs = Quorum_system.majority 5 in
  let p = 0.1 in
  let probs = Array.make 5 p in
  (* Available iff at most 2 fail. *)
  check_float ~eps:1e-12 "binomial closed form"
    (Prob.Distribution.binomial_cdf ~n:5 ~p 2)
    (Quorum_system.availability qs probs)

let test_availability_explicit_enumeration () =
  (* Singleton quorum system: availability = P(node 0 alive). *)
  let qs = Quorum_system.Explicit { n = 3; quorums = [ Subset.of_list [ 0 ] ] } in
  check_float ~eps:1e-12 "singleton" 0.9 (Quorum_system.availability qs [| 0.1; 0.5; 0.9 |])

let test_availability_parallel_bit_stable () =
  (* The enumeration branch runs on the domain pool; any lane count
     must give bit-identical availability. *)
  let qs =
    Quorum_system.Weighted { weights = [| 3; 2; 2; 1; 1; 1; 1 |]; threshold = 6 }
  in
  let probs = [| 0.1; 0.02; 0.3; 0.05; 0.2; 0.15; 0.08 |] in
  let seq = Quorum_system.availability ~domains:1 qs probs in
  let par = Quorum_system.availability ~domains:4 qs probs in
  Alcotest.(check bool) "bit-identical" true (Float.equal seq par);
  Alcotest.(check bool) "in (0,1)" true (seq > 0. && seq < 1.)

let prop_weighted_dp_matches_enumeration =
  (* Cross-validation of the O(n*W) weight DP (the auto-selected path
     above [auto_exact_max] nodes) against exact 2^n enumeration at
     n <= 20, where enumeration is cheap and authoritative. *)
  QCheck.Test.make ~count:100 ~name:"weighted DP availability = exact enumeration"
    QCheck.(
      make
        Gen.(
          int_range 2 20 >>= fun n ->
          array_repeat n (int_range 1 5) >>= fun weights ->
          let total = Array.fold_left ( + ) 0 weights in
          int_range 1 total >>= fun threshold ->
          array_repeat n (float_bound_inclusive 1.) >>= fun probs ->
          return (weights, threshold, probs)))
    (fun (weights, threshold, probs) ->
      let qs = Quorum_system.Weighted { weights; threshold } in
      let dp = Quorum_system.weighted_dp ~weights ~threshold probs in
      let enum = Quorum_system.availability ~exact:true qs probs in
      Float.abs (dp -. enum) <= 1e-12)

let test_weighted_auto_selects_dp () =
  (* Above the node-count threshold the default path is the DP; one
     fixed case checks it against exact enumeration end to end. *)
  let n = 22 in
  let weights = Array.init n (fun i -> 1 + (i mod 4)) in
  let threshold = Array.fold_left ( + ) 0 weights / 2 in
  let probs = Array.init n (fun i -> 0.01 +. (0.01 *. float_of_int (i mod 7))) in
  let qs = Quorum_system.Weighted { weights; threshold } in
  let auto = Quorum_system.availability qs probs in
  let exact = Quorum_system.availability ~exact:true qs probs in
  check_float ~eps:1e-12 "auto (DP) = exact" exact auto

let prop_threshold_exact_matches_dp =
  QCheck.Test.make ~count:100 ~name:"threshold exact enumeration = count DP"
    QCheck.(
      make
        Gen.(
          int_range 1 20 >>= fun n ->
          int_range 1 n >>= fun k ->
          array_repeat n (float_bound_inclusive 1.) >>= fun probs ->
          return (n, k, probs)))
    (fun (n, k, probs) ->
      let qs = Quorum_system.Threshold { n; k } in
      let dp = Quorum_system.availability qs probs in
      let enum = Quorum_system.availability ~exact:true qs probs in
      Float.abs (dp -. enum) <= 1e-12)

let test_weighted_dp_above_enumeration_cap () =
  (* n = 40 is far beyond 2^n enumeration; the DP must still answer,
     and degenerate thresholds must hit the closed-form edges. *)
  let weights = Array.make 40 1 in
  let probs = Array.make 40 0.05 in
  let qs = Quorum_system.Weighted { weights; threshold = 21 } in
  let dp = Quorum_system.availability qs probs in
  (* Unit weights reduce to a 21-of-40 threshold system. *)
  let threshold =
    Quorum_system.availability (Quorum_system.Threshold { n = 40; k = 21 }) probs
  in
  check_float ~eps:1e-12 "unit weights = threshold" threshold dp;
  check_float ~eps:1e-12 "threshold 0 always live" 1.
    (Quorum_system.availability
       (Quorum_system.Weighted { weights; threshold = 0 })
       probs);
  Alcotest.check_raises "exact past cap rejected"
    (Invalid_argument
       "Quorum_system.availability: universe too large for enumeration")
    (fun () ->
      ignore (Quorum_system.availability ~exact:true qs probs))

let test_availability_grid_vs_montecarlo () =
  let qs = Quorum_system.Grid { rows = 2; cols = 2 } in
  let p = 0.2 in
  let exact = Quorum_system.availability qs (Array.make 4 p) in
  let rng = Prob.Rng.create 71 in
  let trials = 60_000 in
  let hits = ref 0 in
  for _ = 1 to trials do
    let live = ref Subset.empty in
    for u = 0 to 3 do
      if not (Prob.Rng.bool rng p) then live := Subset.add !live u
    done;
    if Quorum_system.contains_quorum qs !live then incr hits
  done;
  let empirical = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "MC agrees" true (Float.abs (empirical -. exact) < 0.01)

let test_wheel_system () =
  let qs = Quorum_system.wheel 5 in
  Alcotest.(check bool) "self-intersecting" true (Quorum_system.intersects_in qs qs >= 1);
  Alcotest.(check int) "min quorum is a pair" 2 (Quorum_system.min_quorum_size qs);
  (* Hub + one spoke is a quorum; two spokes are not. *)
  Alcotest.(check bool) "hub+spoke" true
    (Quorum_system.contains_quorum qs (Subset.of_list [ 0; 3 ]));
  Alcotest.(check bool) "two spokes" false
    (Quorum_system.contains_quorum qs (Subset.of_list [ 2; 3 ]));
  (* All spokes form the hub-less quorum. *)
  Alcotest.(check bool) "all spokes" true
    (Quorum_system.contains_quorum qs (Subset.of_list [ 1; 2; 3; 4 ]));
  (* Availability: live set contains a quorum iff (hub up and >= 1
     spoke up) or all spokes up. *)
  let p = 0.2 in
  let by_formula =
    let hub_up = 1. -. p in
    let some_spoke = 1. -. (p ** 4.) in
    let all_spokes = (1. -. p) ** 4. in
    (* Inclusion-exclusion over the two quorum families. *)
    (hub_up *. some_spoke) +. all_spokes -. (hub_up *. all_spokes)
  in
  check_float ~eps:1e-12 "closed form" by_formula
    (Quorum_system.availability qs (Array.make 5 p));
  Alcotest.check_raises "too small" (Invalid_argument "Quorum_system.wheel: need n >= 3")
    (fun () -> ignore (Quorum_system.wheel 2))

let test_uniform_strategy_load () =
  (* Majority of 5: every node is in C(4,2)=6 of the C(5,3)=10 minimal
     quorums, so load = 0.6 = k/n. *)
  check_float ~eps:1e-12 "majority load" 0.6
    (Quorum_system.uniform_strategy_load (Quorum_system.majority 5));
  (* Grid 3x3 by symmetry: each node in (rows + cols - 1) = 5 of 9. *)
  check_float ~eps:1e-12 "grid load" (5. /. 9.)
    (Quorum_system.uniform_strategy_load (Quorum_system.Grid { rows = 3; cols = 3 }))

let prop_threshold_availability_monotone_in_p =
  QCheck.Test.make ~count:50 ~name:"availability decreases as p grows"
    QCheck.(triple (int_range 1 12) (float_bound_inclusive 0.5) (float_bound_inclusive 0.4))
    (fun (n, p, delta) ->
      let qs = Quorum_system.majority n in
      let a1 = Quorum_system.availability qs (Array.make n p) in
      let a2 = Quorum_system.availability qs (Array.make n (p +. delta)) in
      a2 <= a1 +. 1e-9)

(* --- Metrics ------------------------------------------------------------ *)

let test_metrics_report () =
  let report = Metrics.evaluate_uniform (Quorum_system.majority 3) ~p:0.1 in
  Alcotest.(check int) "min quorum" 2 report.Metrics.min_quorum;
  check_float ~eps:1e-12 "availability + failure = 1" 1.
    (report.Metrics.availability +. report.Metrics.failure_probability);
  check_float ~eps:1e-9 "capacity is 1/load" (1. /. report.Metrics.load)
    report.Metrics.capacity

(* --- Probabilistic quorums ----------------------------------------------- *)

let brute_force_disjoint n k1 k2 =
  (* Fix one k1-subset (by symmetry) and count disjoint k2-subsets. *)
  let fixed = Subset.of_list (List.init k1 Fun.id) in
  let total = ref 0 and disjoint = ref 0 in
  Subset.iter_ksubsets n k2 (fun s ->
      incr total;
      if Subset.inter s fixed = Subset.empty then incr disjoint);
  float_of_int !disjoint /. float_of_int !total

let disjoint_probability ~n ~k1 ~k2 =
  1. -. Probabilistic.intersection_probability ~n ~k1 ~k2

let test_disjoint_probability_bruteforce () =
  List.iter
    (fun (n, k1, k2) ->
      check_float ~eps:1e-9
        (Printf.sprintf "n=%d k1=%d k2=%d" n k1 k2)
        (brute_force_disjoint n k1 k2)
        (disjoint_probability ~n ~k1 ~k2))
    [ (6, 2, 2); (8, 3, 2); (10, 3, 3); (9, 4, 4); (7, 1, 1) ]

let test_disjoint_edges () =
  check_float "overlap forced" 0. (disjoint_probability ~n:4 ~k1:3 ~k2:3);
  check_float "empty always disjoint" 1. (disjoint_probability ~n:4 ~k1:0 ~k2:2)

let test_epsilon_intersecting_size () =
  let k = Probabilistic.epsilon_intersecting_size ~n:100 ~epsilon:1e-9 in
  (* Must actually achieve the bound, and k-1 must not. *)
  Alcotest.(check bool) "achieves" true
    (disjoint_probability ~n:100 ~k1:k ~k2:k <= 1e-9);
  Alcotest.(check bool) "minimal" true
    (disjoint_probability ~n:100 ~k1:(k - 1) ~k2:(k - 1) > 1e-9);
  (* O(sqrt n) scaling: far below majority. *)
  Alcotest.(check bool) "below majority" true (k < 51)

let test_contains_correct_e4 () =
  (* The paper's E4: five random nodes at p=1% -> ten nines. *)
  let p = Probabilistic.contains_correct ~n:100 ~k:5 ~p:0.01 in
  check_float ~eps:1e-16 "1 - 1e-10" (1. -. 1e-10) p

let test_quorum_size_for_correct () =
  Alcotest.(check int) "p=1%, ten nines -> 5" 5
    (Probabilistic.quorum_size_for_correct ~p:0.01 ~target:(1. -. 1e-10));
  Alcotest.(check int) "p=0 -> 1" 1
    (Probabilistic.quorum_size_for_correct ~p:0. ~target:0.999999)

(* --- Dependent formation -------------------------------------------------- *)

let test_formation_independent_baseline () =
  check_float ~eps:1e-12 "matches probabilistic module"
    (Probabilistic.intersection_probability ~n:20 ~k1:5 ~k2:5)
    (Formation.intersection_independent ~n:20 ~k1:5 ~k2:5)

let test_formation_p_zero_reduces_to_independent () =
  (* With no failures the live set is the whole universe. *)
  check_float ~eps:1e-12 "p = 0"
    (Formation.intersection_independent ~n:15 ~k1:4 ~k2:4)
    (Formation.intersection_given_live ~n:15 ~p:0. ~k1:4 ~k2:4)

let test_formation_dependence_increases_intersection () =
  (* Failures shrink the shared live set, so quorums drawn from it
     intersect MORE often than the independent model predicts. *)
  let dep = Formation.intersection_given_live ~n:30 ~p:0.3 ~k1:8 ~k2:8 in
  let indep = Formation.intersection_independent ~n:30 ~k1:8 ~k2:8 in
  Alcotest.(check bool) "dependent >= independent" true (dep >= indep);
  Alcotest.(check bool) "gain > 1" true
    (Formation.dependence_gain ~n:30 ~p:0.3 ~k1:8 ~k2:8 > 1.)

let test_formation_matches_montecarlo () =
  let n = 12 and p = 0.25 and k = 4 in
  let exact = Formation.intersection_given_live ~n ~p ~k1:k ~k2:k in
  let rng = Prob.Rng.create 101 in
  let trials = 40_000 in
  let hits = ref 0 and valid = ref 0 in
  for _ = 1 to trials do
    let live = ref [] in
    for u = 0 to n - 1 do
      if not (Prob.Rng.bool rng p) then live := u :: !live
    done;
    let live = Array.of_list !live in
    if Array.length live >= k then begin
      incr valid;
      let draw () =
        let a = Array.copy live in
        Prob.Rng.shuffle rng a;
        Subset.of_list (Array.to_list (Array.sub a 0 k))
      in
      if Subset.inter (draw ()) (draw ()) <> Subset.empty then incr hits
    end
  done;
  let empirical = float_of_int !hits /. float_of_int !valid in
  Alcotest.(check bool) "MC agrees" true (Float.abs (empirical -. exact) < 0.01)

let test_loss_given_failures () =
  check_float "j < k" 0. (Formation.loss_given_failures ~n:10 ~k:3 ~j:2);
  check_float ~eps:1e-12 "j = k" (1. /. Prob.Math_utils.choose 10 3)
    (Formation.loss_given_failures ~n:10 ~k:3 ~j:3);
  check_float "j = n" 1. (Formation.loss_given_failures ~n:10 ~k:3 ~j:10);
  (* Brute force for a small instance: count j-subsets covering a fixed
     k-subset. *)
  let n = 8 and k = 3 and j = 5 in
  let quorum = Subset.of_list [ 0; 1; 2 ] in
  let total = ref 0 and covering = ref 0 in
  Subset.iter_ksubsets n j (fun s ->
      incr total;
      if Subset.subset quorum s then incr covering);
  check_float ~eps:1e-12 "brute force"
    (float_of_int !covering /. float_of_int !total)
    (Formation.loss_given_failures ~n ~k ~j)

let test_expected_loss_identity () =
  (* sum_j P(j failures) * P(loss | j) must equal p^k. *)
  let n = 12 and k = 4 and p = 0.2 in
  let summed = ref 0. in
  for j = 0 to n do
    summed :=
      !summed
      +. Prob.Distribution.binomial_pmf ~n ~p j *. Formation.loss_given_failures ~n ~k ~j
  done;
  check_float ~eps:1e-12 "summed form" (Formation.expected_loss ~n ~k ~p) !summed

let suite =
  [
    Alcotest.test_case "subset basics" `Quick test_subset_basics;
    Alcotest.test_case "subset algebra" `Quick test_subset_algebra;
    Alcotest.test_case "iter_subsets count" `Quick test_iter_subsets_count;
    Alcotest.test_case "iter_ksubsets" `Quick test_iter_ksubsets;
    Alcotest.test_case "majority system" `Quick test_majority_system;
    Alcotest.test_case "threshold intersection formula" `Quick
      test_threshold_intersection_formula;
    Alcotest.test_case "intersection matches brute force" `Quick
      test_threshold_intersection_matches_bruteforce;
    Alcotest.test_case "grid quorums" `Quick test_grid_quorums_intersect;
    Alcotest.test_case "weighted minimal quorums" `Quick test_weighted_minimal_quorums;
    Alcotest.test_case "availability closed form" `Quick
      test_availability_threshold_closed_form;
    Alcotest.test_case "availability explicit" `Quick test_availability_explicit_enumeration;
    Alcotest.test_case "availability grid vs MC" `Slow test_availability_grid_vs_montecarlo;
    Alcotest.test_case "availability parallel bit-stable" `Quick
      test_availability_parallel_bit_stable;
    QCheck_alcotest.to_alcotest prop_weighted_dp_matches_enumeration;
    QCheck_alcotest.to_alcotest prop_threshold_exact_matches_dp;
    Alcotest.test_case "weighted auto selects DP" `Quick test_weighted_auto_selects_dp;
    Alcotest.test_case "weighted DP beyond enumeration cap" `Quick
      test_weighted_dp_above_enumeration_cap;
    Alcotest.test_case "wheel system" `Quick test_wheel_system;
    Alcotest.test_case "uniform strategy load" `Quick test_uniform_strategy_load;
    QCheck_alcotest.to_alcotest prop_threshold_availability_monotone_in_p;
    Alcotest.test_case "metrics report" `Quick test_metrics_report;
    Alcotest.test_case "disjoint vs brute force" `Quick test_disjoint_probability_bruteforce;
    Alcotest.test_case "disjoint edges" `Quick test_disjoint_edges;
    Alcotest.test_case "epsilon intersecting size" `Quick test_epsilon_intersecting_size;
    Alcotest.test_case "contains_correct (E4)" `Quick test_contains_correct_e4;
    Alcotest.test_case "quorum size for correct" `Quick test_quorum_size_for_correct;
    Alcotest.test_case "formation independent baseline" `Quick
      test_formation_independent_baseline;
    Alcotest.test_case "formation p=0 baseline" `Quick
      test_formation_p_zero_reduces_to_independent;
    Alcotest.test_case "dependence increases intersection" `Quick
      test_formation_dependence_increases_intersection;
    Alcotest.test_case "formation vs monte carlo" `Slow test_formation_matches_montecarlo;
    Alcotest.test_case "loss given failures" `Quick test_loss_given_failures;
    Alcotest.test_case "expected loss identity" `Quick test_expected_loss_identity;
  ]
