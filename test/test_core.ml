(* Tests for the probcons core: configurations, protocol models, the
   analysis engines, durability, trade-offs, equivalence search, and
   the paper-table regression. *)

open Probcons

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- Config ----------------------------------------------------------- *)

let test_config_counts () =
  let config = [| Config.Correct; Config.Crashed; Config.Byzantine; Config.Correct |] in
  Alcotest.(check int) "crashed" 1 (Config.num_crashed config);
  Alcotest.(check int) "byz" 1 (Config.num_byzantine config)

(* The binary enumeration builds configuration [mask] from its failed
   subset: failed-set bitmask 2 on three nodes fails node 1 alone. *)
let test_config_of_failed_subset () =
  let configs = ref [] in
  Config.iter_binary_range ~n:3 ~byzantine:true ~lo:2 ~hi:3 (fun c ->
      configs := Array.copy c :: !configs);
  match !configs with
  | [ config ] ->
      Alcotest.(check bool) "node 1 byz" true (config.(1) = Config.Byzantine);
      Alcotest.(check bool) "node 0 correct" true (config.(0) = Config.Correct)
  | l -> Alcotest.failf "expected one configuration, got %d" (List.length l)

let test_config_probability () =
  let crash_probs = [| 0.1; 0.2 |] and byz_probs = [| 0.05; 0. |] in
  let config = [| Config.Crashed; Config.Correct |] in
  check_float ~eps:1e-12 "product" (0.1 *. 0.8)
    (Config.probability ~crash_probs ~byz_probs config)

let test_config_probabilities_sum_to_one () =
  let crash_probs = [| 0.1; 0.25; 0.3 |] and byz_probs = [| 0.05; 0.; 0.2 |] in
  let total = ref 0. in
  Config.iter_ternary ~n:3 (fun config ->
      total := !total +. Config.probability ~crash_probs ~byz_probs config);
  check_float ~eps:1e-12 "total mass" 1. !total

let test_joint_count_distribution_vs_enumeration () =
  let crash_probs = [| 0.1; 0.25; 0.3; 0.02 |] and byz_probs = [| 0.05; 0.; 0.2; 0.5 |] in
  let dist = Config.joint_count_distribution ~crash_probs ~byz_probs in
  let expected = Array.make_matrix 5 5 0. in
  Config.iter_ternary ~n:4 (fun config ->
      let b = Config.num_byzantine config and c = Config.num_crashed config in
      expected.(b).(c) <-
        expected.(b).(c) +. Config.probability ~crash_probs ~byz_probs config);
  for b = 0 to 4 do
    for c = 0 to 4 do
      check_float ~eps:1e-12 (Printf.sprintf "b=%d c=%d" b c) expected.(b).(c) dist.(b).(c)
    done
  done

(* --- Count DP against the full-corner reference ------------------------ *)

(* A fault probability that leans on the edges: exact 0 or 1, a small
   log-uniform value, or a uniform one. *)
let edge_prob rng =
  match Prob.Rng.int rng 4 with
  | 0 -> 0.
  | 1 -> 1.
  | 2 -> exp (log 1e-4 +. (Prob.Rng.float rng *. (log 0.1 -. log 1e-4)))
  | _ -> Prob.Rng.float rng

(* [kind] 0 is crash-only, 1 all-Byzantine, 2 mixed: each node's
   Byzantine fraction is then 0, 1, 1/2 or uniform. A node with p = 1
   has crash and Byzantine probabilities that sum to 1. *)
let kinds_fleet ~kind rng n =
  Faultmodel.Fleet.of_nodes
    (List.init n (fun id ->
         let byz_fraction =
           match kind with
           | 0 -> 0.
           | 1 -> 1.
           | _ -> (
               match Prob.Rng.int rng 4 with
               | 0 -> 0.
               | 1 -> 1.
               | 2 -> 0.5
               | _ -> Prob.Rng.float rng)
         in
         Faultmodel.Node.make ~id ~byz_fraction
           (Faultmodel.Fault_curve.constant (edge_prob rng))))

(* (n, kind, seed): fleets of 0-40 nodes of every kind, and about one
   case in 33 a one-kind fleet of 41-200 nodes, the served sizes where
   one kind's Poisson binomial replaced the table. *)
let count_dp_case =
  let seed = QCheck.Gen.int_range 0 1_000_000_000 in
  QCheck.make
    ~print:QCheck.Print.(triple int int int)
    ~shrink:QCheck.Shrink.(triple int int int)
    QCheck.Gen.(
      frequency
        [
          (97, triple (int_range 0 40) (int_range 0 2) seed);
          (3, triple (int_range 41 200) (int_range 0 1) seed);
        ])

let prop_count_dp_matches_reference =
  QCheck.Test.make ~count:10_000
    ~name:"count DP = full-corner reference, bit for bit" count_dp_case
    (fun (n, kind, seed) ->
      let fleet = kinds_fleet ~kind (Prob.Rng.of_pair seed kind) n in
      let crash_probs = Faultmodel.Fleet.crash_probs fleet
      and byz_probs = Faultmodel.Fleet.byz_probs fleet in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let reference =
        Count_dp_reference.joint_count_distribution ~crash_probs ~byz_probs
      in
      let same_run proto =
        let r = Analysis.run ~strategy:Analysis.Count_dp proto fleet in
        let s, l, sl = Count_dp_reference.analyze proto reference in
        same r.Analysis.p_safe s && same r.Analysis.p_live l
        && same r.Analysis.p_safe_live sl
      in
      Array.for_all2 (Array.for_all2 same)
        (Config.joint_count_distribution ~crash_probs ~byz_probs)
        reference
      && (n < 1 || same_run (Raft_model.protocol (Raft_model.default n)))
      && (n < 4 || same_run (Pbft_model.protocol (Pbft_model.default n))))

(* What the count engine buys over the full-corner reference, each side
   timed as the best of several batches. One kind: [Analysis.run
   ~strategy:Count_dp] on a 200-node crash-only fleet (a Poisson
   binomial and its sum) at least 20x the reference table and its sum,
   which walk the empty Byzantine dimension. Mixed: the bounded walk at
   least 1.3x the full corner on a 100-node fleet, whose unreachable
   half of every corner the reference walks. *)
let test_count_dp_speed () =
  let batch ~per_batch f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to per_batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int per_batch
  in
  (* One kernel batch, then one reference batch, each round: a busy
     stretch slows both sides of a round alike, and the best of each
     side is taken over the same rounds. *)
  let gate label ~floor ~per_batch kernel reference =
    let kernel_best = ref infinity and reference_best = ref infinity in
    for _ = 1 to 7 do
      kernel_best := Float.min !kernel_best (batch ~per_batch kernel);
      reference_best := Float.min !reference_best (batch ~per_batch:2 reference)
    done;
    let kernel = !kernel_best and reference = !reference_best in
    let ratio = reference /. kernel in
    if ratio < floor then
      Alcotest.failf "%s: kernel %.1f us vs reference %.1f us: only %.1fx, floor %gx"
        label (kernel *. 1e6) (reference *. 1e6) ratio floor
  in
  let p n u = 0.001 +. (0.049 *. float_of_int u /. float_of_int n) in
  let n = 200 in
  let fleet =
    Faultmodel.Fleet.of_nodes
      (List.init n (fun id ->
           Faultmodel.Node.make ~id (Faultmodel.Fault_curve.constant (p n id))))
  in
  let proto = Raft_model.protocol (Raft_model.default n) in
  let crash_probs = Faultmodel.Fleet.crash_probs fleet
  and byz_probs = Faultmodel.Fleet.byz_probs fleet in
  gate "200-node crash-only" ~floor:20. ~per_batch:100
    (fun () -> Analysis.run ~strategy:Analysis.Count_dp proto fleet)
    (fun () ->
      Count_dp_reference.(
        analyze proto (joint_count_distribution ~crash_probs ~byz_probs)));
  let n = 100 in
  let crash_probs = Array.init n (fun u -> p n u *. 0.5) in
  let byz_probs = Array.copy crash_probs in
  gate "100-node mixed" ~floor:1.3 ~per_batch:20
    (fun () -> Config.joint_count_distribution ~crash_probs ~byz_probs)
    (fun () -> Count_dp_reference.joint_count_distribution ~crash_probs ~byz_probs)

let prop_joint_distribution_matches_enumeration =
  QCheck.Test.make ~count:40 ~name:"count DP = ternary enumeration (random fleets)"
    QCheck.(pair (int_range 1 6) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let crash_probs = Array.init n (fun _ -> Prob.Rng.float rng /. 2.) in
      let byz_probs = Array.init n (fun _ -> Prob.Rng.float rng /. 2.) in
      let dist = Config.joint_count_distribution ~crash_probs ~byz_probs in
      let ok = ref true in
      let expected = Array.make_matrix (n + 1) (n + 1) 0. in
      Config.iter_ternary ~n (fun config ->
          let b = Config.num_byzantine config and c = Config.num_crashed config in
          expected.(b).(c) <-
            expected.(b).(c) +. Config.probability ~crash_probs ~byz_probs config);
      for b = 0 to n do
        for c = 0 to n do
          if Float.abs (expected.(b).(c) -. dist.(b).(c)) > 1e-9 then ok := false
        done
      done;
      !ok)

let test_config_sample_distribution () =
  let crash_probs = [| 0.3 |] and byz_probs = [| 0.2 |] in
  let rng = Prob.Rng.create 55 in
  let crash = ref 0 and byz = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    match (Config.sample ~crash_probs ~byz_probs rng).(0) with
    | Config.Crashed -> incr crash
    | Config.Byzantine -> incr byz
    | Config.Correct -> ()
  done;
  let f x = float_of_int !x /. float_of_int trials in
  Alcotest.(check bool) "crash fraction" true (Float.abs (f crash -. 0.3) < 0.01);
  Alcotest.(check bool) "byz fraction" true (Float.abs (f byz -. 0.2) < 0.01)

(* --- Raft model --------------------------------------------------------- *)

(* A structurally safe Raft is safe with every node correct. *)
let structurally_safe (p : Raft_model.params) =
  (Raft_model.protocol p).Protocol.safe.Protocol.full
    (Array.make p.Raft_model.n Config.Correct)

let test_raft_default_quorums () =
  let p = Raft_model.default 5 in
  Alcotest.(check int) "qper" 3 p.Raft_model.q_per;
  Alcotest.(check int) "qvc" 3 p.Raft_model.q_vc;
  Alcotest.(check bool) "structurally safe" true (structurally_safe p)

let test_raft_structural_safety_conditions () =
  Alcotest.(check bool) "small qvc unsafe" false
    (structurally_safe (Raft_model.flexible ~n:5 ~q_per:5 ~q_vc:2));
  Alcotest.(check bool) "small sum unsafe" false
    (structurally_safe (Raft_model.flexible ~n:5 ~q_per:1 ~q_vc:3));
  Alcotest.(check bool) "flexible safe" true
    (structurally_safe (Raft_model.flexible ~n:5 ~q_per:2 ~q_vc:4))

let test_raft_byzantine_voids_safety () =
  let proto = Raft_model.protocol (Raft_model.default 3) in
  let byz_config = [| Config.Byzantine; Config.Correct; Config.Correct |] in
  Alcotest.(check bool) "byz unsafe" false (proto.Protocol.safe.Protocol.full byz_config);
  let crash_config = [| Config.Crashed; Config.Correct; Config.Correct |] in
  Alcotest.(check bool) "crash safe" true (proto.Protocol.safe.Protocol.full crash_config)

let test_raft_liveness_threshold () =
  let proto = Raft_model.protocol (Raft_model.default 5) in
  let mk failed =
    Array.init 5 (fun u -> if List.mem u failed then Config.Crashed else Config.Correct)
  in
  Alcotest.(check bool) "2 crashed live" true (proto.Protocol.live.Protocol.full (mk [ 0; 1 ]));
  Alcotest.(check bool) "3 crashed dead" false
    (proto.Protocol.live.Protocol.full (mk [ 0; 1; 2 ]))

let test_raft_closed_form_matches_engine () =
  List.iter
    (fun (n, p) ->
      let fleet = Faultmodel.Fleet.uniform ~n ~p () in
      let result = Analysis.run (Raft_model.protocol (Raft_model.default n)) fleet in
      check_float ~eps:1e-12
        (Printf.sprintf "n=%d p=%g" n p)
        (Raft_model.safe_and_live_uniform ~n ~p)
        result.Analysis.p_safe_live)
    [ (3, 0.01); (5, 0.02); (7, 0.04); (9, 0.08) ]

let test_raft_flexible_validation () =
  Alcotest.check_raises "quorum too large"
    (Invalid_argument "Raft_model.flexible: quorum sizes must be within [1, n]")
    (fun () -> ignore (Raft_model.flexible ~n:3 ~q_per:4 ~q_vc:2))

(* --- PBFT model ---------------------------------------------------------- *)

let test_pbft_default_params () =
  let p = Pbft_model.default 7 in
  Alcotest.(check int) "qeq" 5 p.Pbft_model.q_eq;
  Alcotest.(check int) "qvct" 3 p.Pbft_model.q_vc_t;
  Alcotest.check_raises "n too small" (Invalid_argument "Pbft_model.default: PBFT needs n >= 4")
    (fun () -> ignore (Pbft_model.default 3))

(* Theorem 3.1 at given counts, read through the model's count
   predicates. *)
let by_count (pred : Protocol.predicate) =
  match pred.Protocol.by_count with
  | Some f -> f
  | None -> Alcotest.fail "PBFT predicates are count predicates"

let safe_given_byz p byz =
  by_count (Pbft_model.protocol p).Protocol.safe ~byz ~crashed:0

let live_given p ~byz ~correct =
  by_count (Pbft_model.protocol p).Protocol.live ~byz
    ~crashed:(p.Pbft_model.n - byz - correct)

let test_pbft_safety_thresholds () =
  let p = Pbft_model.default 4 in
  Alcotest.(check bool) "0 byz safe" true (safe_given_byz p 0);
  Alcotest.(check bool) "1 byz safe" true (safe_given_byz p 1);
  Alcotest.(check bool) "2 byz unsafe" false (safe_given_byz p 2)

let test_pbft_liveness_conditions () =
  let p = Pbft_model.default 4 in
  Alcotest.(check bool) "all correct live" true (live_given p ~byz:0 ~correct:4);
  Alcotest.(check bool) "1 byz 3 correct live" true
    (live_given p ~byz:1 ~correct:3);
  Alcotest.(check bool) "1 crash 3 correct live" true
    (live_given p ~byz:0 ~correct:3);
  Alcotest.(check bool) "2 correct short of quorum" false
    (live_given p ~byz:0 ~correct:2);
  (* 2 byz exceed the trigger margin q_vc - q_vc_t = 1. *)
  Alcotest.(check bool) "2 byz not live" false (live_given p ~byz:2 ~correct:2)

let test_pbft_crashes_do_not_break_safety () =
  let proto = Pbft_model.protocol (Pbft_model.default 4) in
  let all_crashed = Array.make 4 Config.Crashed in
  Alcotest.(check bool) "crashes safe" true (proto.Protocol.safe.Protocol.full all_crashed);
  Alcotest.(check bool) "crashes not live" false
    (proto.Protocol.live.Protocol.full all_crashed)

let test_pbft_safety_monotone_in_byz () =
  let p = Pbft_model.default 8 in
  let previous = ref true in
  for byz = 0 to 8 do
    let now = safe_given_byz p byz in
    if now && not !previous then Alcotest.fail "safety not monotone";
    previous := now
  done

(* --- Analysis engines ------------------------------------------------------ *)

let test_engines_agree_heterogeneous () =
  (* Count DP and full enumeration must agree on a heterogeneous CFT
     fleet. *)
  let fleet = Faultmodel.Fleet.mixed [ (2, 0.08); (3, 0.01) ] in
  let proto = Raft_model.protocol (Raft_model.default 5) in
  let dp = Analysis.run ~strategy:Analysis.Count_dp proto fleet in
  let enum = Analysis.run ~strategy:Analysis.Enumeration proto fleet in
  check_float ~eps:1e-9 "p_live" enum.Analysis.p_live dp.Analysis.p_live;
  check_float ~eps:1e-9 "p_safe" enum.Analysis.p_safe dp.Analysis.p_safe;
  check_float ~eps:1e-9 "p_safe_live" enum.Analysis.p_safe_live dp.Analysis.p_safe_live

let test_engines_agree_bft_ternary () =
  (* Mixed crash/Byzantine fleet: DP vs ternary enumeration. *)
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:0.3 ~n:5 ~p:0.1 () in
  let proto = Pbft_model.protocol (Pbft_model.make ~n:5 ~q_eq:4 ~q_per:4 ~q_vc:4 ~q_vc_t:2) in
  let dp = Analysis.run ~strategy:Analysis.Count_dp proto fleet in
  let enum = Analysis.run ~strategy:Analysis.Enumeration proto fleet in
  check_float ~eps:1e-9 "p_safe" enum.Analysis.p_safe dp.Analysis.p_safe;
  check_float ~eps:1e-9 "p_live" enum.Analysis.p_live dp.Analysis.p_live

let test_monte_carlo_brackets_exact () =
  let fleet = Faultmodel.Fleet.uniform ~n:5 ~p:0.15 () in
  let proto = Raft_model.protocol (Raft_model.default 5) in
  let exact = Analysis.run proto fleet in
  let mc = Analysis.run ~strategy:(Analysis.Monte_carlo 100_000) proto fleet in
  (match mc.Analysis.ci_live with
  | Some (low, high) ->
      Alcotest.(check bool) "exact in CI" true
        (exact.Analysis.p_live >= low && exact.Analysis.p_live <= high)
  | None -> Alcotest.fail "MC must report a CI");
  Alcotest.(check bool) "engine label" true
    (String.length mc.Analysis.engine > 0 && mc.Analysis.engine.[0] = 'm')

let test_analysis_fleet_size_mismatch () =
  let fleet = Faultmodel.Fleet.uniform ~n:4 ~p:0.1 () in
  let proto = Raft_model.protocol (Raft_model.default 5) in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Analysis.run: fleet size 4 but protocol expects 5") (fun () ->
      ignore (Analysis.run proto fleet))

let test_analysis_at_time () =
  (* The same fleet gets less reliable at a later mission time. *)
  let curve = Faultmodel.Fault_curve.Exponential { rate = 1e-5 } in
  let fleet =
    Faultmodel.Fleet.of_nodes (List.init 3 (fun id -> Faultmodel.Node.make ~id curve))
  in
  let proto = Raft_model.protocol (Raft_model.default 3) in
  let early = Analysis.run ~at:100. proto fleet in
  let late = Analysis.run ~at:50_000. proto fleet in
  Alcotest.(check bool) "reliability decays" true
    (late.Analysis.p_safe_live < early.Analysis.p_safe_live)

let test_correlated_analysis_shock () =
  (* A shock that wipes a whole majority with probability 0.5 caps
     liveness near 0.5 even though marginal probabilities are tiny. *)
  let fleet = Faultmodel.Fleet.uniform ~n:3 ~p:0.001 () in
  let model =
    Faultmodel.Correlation.Domains
      [ { members = [ 0; 1 ]; shock_probability = 0.5; conditional_failure = 1.0; byzantine_shock = false } ]
  in
  let proto = Raft_model.protocol (Raft_model.default 3) in
  let result = Analysis.run_correlated ~trials:50_000 model proto fleet in
  Alcotest.(check bool) "liveness near half" true
    (Float.abs (result.Analysis.p_live -. 0.5) < 0.02);
  (* The independent analysis would wildly overestimate. *)
  let independent = Analysis.run proto fleet in
  Alcotest.(check bool) "independence is optimistic here" true
    (independent.Analysis.p_live > 0.99)

let test_auto_engine_selection () =
  let engine_of proto fleet = (Analysis.run proto fleet).Analysis.engine in
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  (* Count predicates take the DP fast path. *)
  Alcotest.(check string) "count-dp" "count-dp"
    (engine_of
       (Raft_model.protocol (Raft_model.default 5))
       (Faultmodel.Fleet.uniform ~n:5 ~p:0.1 ()));
  (* Identity-dependent predicates with one fault kind: binary
     enumeration. *)
  let stake n = Stake_model.protocol (Stake_model.make (Array.make n 1.)) in
  Alcotest.(check bool) "enumeration-binary" true
    (starts_with "enumeration-binary"
       (engine_of (stake 8) (Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:8 ~p:0.1 ())));
  (* Mixed crash/Byzantine, small n: ternary enumeration. *)
  Alcotest.(check bool) "enumeration-ternary" true
    (starts_with "enumeration-ternary"
       (engine_of (stake 8) (Faultmodel.Fleet.uniform ~byz_fraction:0.5 ~n:8 ~p:0.1 ())));
  (* Mixed, large n: Monte Carlo with a confidence interval. *)
  let big =
    Analysis.run (stake 20) (Faultmodel.Fleet.uniform ~byz_fraction:0.5 ~n:20 ~p:0.1 ())
  in
  Alcotest.(check bool) "monte-carlo" true (starts_with "monte-carlo" big.Analysis.engine);
  Alcotest.(check bool) "has CI" true (big.Analysis.ci_safe <> None)

let prop_reliability_monotone_in_p =
  QCheck.Test.make ~count:30 ~name:"raft reliability decreases in p"
    QCheck.(pair (int_range 1 6) (float_bound_inclusive 0.4))
    (fun (half, p) ->
      let n = (2 * half) + 1 in
      Raft_model.safe_and_live_uniform ~n ~p
      >= Raft_model.safe_and_live_uniform ~n ~p:(p +. 0.1) -. 1e-12)

(* --- Durability --------------------------------------------------------- *)

let test_durability_uniform_fleet_all_equal () =
  (* With identical nodes every placement gives loss = p^k exactly,
     including the symmetric-mean Random path. *)
  let fleet = Faultmodel.Fleet.uniform ~n:6 ~p:0.2 () in
  let expected = 0.2 ** 3. in
  List.iter
    (fun placement ->
      check_float ~eps:1e-12 "p^k"
        expected
        (Durability.data_loss_probability fleet placement ~size:3))
    [ Durability.Worst_case; Durability.Best_case; Durability.Random ]

let test_durability_ordering () =
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.08); (3, 0.01) ] in
  let loss placement = Durability.data_loss_probability fleet placement ~size:4 in
  let worst = loss Durability.Worst_case in
  let random = loss Durability.Random in
  let constrained =
    loss (Durability.Constrained { reliable = [ 4; 5; 6 ]; min_reliable = 1 })
  in
  let best = loss Durability.Best_case in
  Alcotest.(check bool) "worst >= random" true (worst >= random);
  Alcotest.(check bool) "worst >= constrained" true (worst >= constrained);
  Alcotest.(check bool) "constrained >= best" true (constrained >= best);
  Alcotest.(check bool) "random >= best" true (random >= best)

let test_durability_worst_case_value () =
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.08); (3, 0.01) ] in
  check_float ~eps:1e-12 "all-flaky quorum" (0.08 ** 4.)
    (Durability.data_loss_probability fleet Durability.Worst_case ~size:4);
  check_float ~eps:1e-12 "one reliable forced" (0.01 *. (0.08 ** 3.))
    (Durability.data_loss_probability fleet
       (Durability.Constrained { reliable = [ 4; 5; 6 ]; min_reliable = 1 })
       ~size:4)

let test_durability_random_is_symmetric_mean () =
  (* Cross-check the elementary-symmetric-polynomial path against a
     direct average over all quorums. *)
  let fleet = Faultmodel.Fleet.mixed [ (2, 0.3); (2, 0.1) ] in
  let probs = Faultmodel.Fleet.fault_probs fleet in
  let total = ref 0. and count = ref 0 in
  Quorum.Subset.iter_ksubsets 4 2 (fun s ->
      incr count;
      let product =
        List.fold_left (fun acc u -> acc *. probs.(u)) 1. (Quorum.Subset.to_list s)
      in
      total := !total +. product);
  check_float ~eps:1e-12 "matches direct average"
    (!total /. float_of_int !count)
    (Durability.data_loss_probability fleet Durability.Random ~size:2)

let test_durability_validation () =
  let fleet = Faultmodel.Fleet.uniform ~n:3 ~p:0.1 () in
  List.iter
    (fun (label, placement, size) ->
      Alcotest.check_raises label
        (Invalid_argument "Durability: quorum size out of range") (fun () ->
          ignore (Durability.durability fleet placement ~size)))
    [
      ("size too large", Durability.Worst_case, 4);
      ("random size 0", Durability.Random, 0);
      ("random size too large", Durability.Random, 4);
    ]

(* --- Tradeoff (E6) --------------------------------------------------------- *)

let test_tradeoff_pbft_4_vs_5 () =
  let c = Tradeoff.pbft_node_count ~p:0.01 ~n_base:4 ~n_alt:5 in
  (* The paper: 42-60x safety improvement, ~1.67x liveness cost. *)
  Alcotest.(check bool) "safety improves >= 40x" true (c.Tradeoff.safety_improvement > 40.);
  Alcotest.(check bool) "safety improves <= 65x" true (c.Tradeoff.safety_improvement < 65.);
  Alcotest.(check bool) "liveness cost ~1.67x" true
    (Float.abs (c.Tradeoff.liveness_degradation -. 1.67) < 0.05)

let test_tradeoff_5_safer_than_7 () =
  (* The paper: the 5-node system is more safe than the 7-node one. *)
  let five =
    Analysis.run
      (Pbft_model.protocol (Pbft_model.default 5))
      (Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:5 ~p:0.01 ())
  in
  let seven =
    Analysis.run
      (Pbft_model.protocol (Pbft_model.default 7))
      (Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:7 ~p:0.01 ())
  in
  Alcotest.(check bool) "5-node safer" true (five.Analysis.p_safe > seven.Analysis.p_safe)

let test_tradeoff_sweep_range () =
  (* For small p the ratio of unsafeties is ~ (6 p^2) / (10 p^3) =
     0.6 / p; the paper's quoted 42-60x band is this ratio across
     p in [1%, ~1.4%]. *)
  let sweep =
    List.map
      (fun p -> (p, Tradeoff.pbft_node_count ~p ~n_base:4 ~n_alt:5))
      [ 0.01; 0.0125; 0.014 ]
  in
  Alcotest.(check int) "three points" 3 (List.length sweep);
  List.iter
    (fun (p, c) ->
      let predicted = 0.6 /. p in
      Alcotest.(check bool)
        (Printf.sprintf "ratio ~ 0.6/p at p=%g" p)
        true
        (Float.abs (c.Tradeoff.safety_improvement -. predicted) /. predicted < 0.15);
      Alcotest.(check bool) "inside the paper's 42-60 band (widened 10%)" true
        (c.Tradeoff.safety_improvement > 38. && c.Tradeoff.safety_improvement < 66.))
    sweep;
  (* And the ratio must fall as p grows. *)
  match List.map (fun (_, c) -> c.Tradeoff.safety_improvement) sweep with
  | [ a; b; c ] -> Alcotest.(check bool) "decreasing in p" true (a > b && b > c)
  | _ -> Alcotest.fail "unexpected sweep shape"

(* --- Horizon trajectories (E23) --------------------------------------- *)

let markov_minority_fleet n =
  let nodes =
    List.init n (fun id ->
        let process =
          if id < 2 then
            Faultmodel.Failure_process.Markov
              { fail_rate = 1e-4; recover_rate = 1e-2 }
          else Faultmodel.Failure_process.Static 0.02
        in
        Faultmodel.Node.make ~id (Faultmodel.Failure_process.to_curve process))
  in
  Faultmodel.Fleet.of_nodes nodes

(* E23's fleet: five bathtub curves, infant mortality 0.25 for the
   first 2000h, then 0.01, wearing out to 0.02 after 8000h. *)
let bathtub_fleet () =
  let bathtub =
    Faultmodel.Fault_curve.Bathtub
      {
        infant = Faultmodel.Fault_curve.Constant 0.25;
        useful = Faultmodel.Fault_curve.Constant 0.01;
        wearout = Faultmodel.Fault_curve.Constant 0.02;
        t1 = 2000.;
        t2 = 8000.;
      }
  in
  Faultmodel.Fleet.of_nodes
    (List.init 5 (fun id -> Faultmodel.Node.make ~id bathtub))

(* Markov nodes whose faults are crashes, Byzantine or an even split,
   beside static crash-only ones: marginals that move with Byzantine
   mass, so every round takes the joint (byz, crashed) table. *)
let byzantine_markov_fleet n =
  Faultmodel.Fleet.of_nodes
    (List.init n (fun id ->
         let process =
           if id < 3 then
             Faultmodel.Failure_process.Markov
               { fail_rate = 2e-4; recover_rate = 1e-2 }
           else Faultmodel.Failure_process.Static 0.02
         in
         Faultmodel.Node.make ~id
           ~byz_fraction:(match id with 0 -> 0. | 1 -> 1. | 2 -> 0.5 | _ -> 0.)
           (Faultmodel.Failure_process.to_curve process)))

let raft n = Raft_model.protocol (Raft_model.default n)
let horizon_rounds = Analysis.horizon_times ~horizon:8766. ~rounds:12

(* Every trajectory round is the analysis [run] makes at that time,
   checked on whole results, engine label included, with no tolerance.
   Returns the trajectory. *)
let check_horizon_is_run label proto fleet =
  let points = Analysis.run_horizon ~times:horizon_rounds proto fleet in
  Alcotest.(check int) (label ^ ": one point per round") 12
    (List.length points);
  List.iter2
    (fun want { Analysis.at; result = r } ->
      Alcotest.(check (float 0.)) (label ^ ": round time") want at;
      let d = Analysis.run ~at proto fleet in
      if compare r d <> 0 then
        Alcotest.failf "%s at %g: %s %h %h %h, run ~at %s %h %h %h" label at
          r.Analysis.engine r.Analysis.p_safe r.Analysis.p_live
          r.Analysis.p_safe_live d.Analysis.engine d.Analysis.p_safe
          d.Analysis.p_live d.Analysis.p_safe_live)
    horizon_rounds points;
  points

let test_run_horizon_static_is_run () =
  (* A fleet of constant curves: the backward-compatibility contract. *)
  ignore
    (check_horizon_is_run "static" (raft 5)
       (Faultmodel.Fleet.mixed [ (2, 0.08); (3, 0.01) ]))

let test_run_horizon_incremental_matches_exact () =
  (* A Markov minority, the fleet shape where [Auto] once took an
     incremental fast path: its trajectory, which reuses a round whose
     marginals did not move, equals a [Count_dp] recompute every
     round, bit for bit. *)
  let proto = raft 9 and fleet = markov_minority_fleet 9 in
  let auto = check_horizon_is_run "markov minority" proto fleet in
  let exact =
    Analysis.run_horizon ~strategy:Analysis.Count_dp ~times:horizon_rounds
      proto fleet
  in
  Alcotest.(check bool) "Auto = Count_dp at every round" true
    (compare auto exact = 0)

let test_run_horizon_is_run () =
  (* Marginals that move every round: E23's bathtubs, and Markov nodes
     with Byzantine mass, which take the joint (byz, crashed) table. *)
  ignore (check_horizon_is_run "bathtub (E23)" (raft 5) (bathtub_fleet ()));
  ignore
    (check_horizon_is_run "byzantine markov"
       (Pbft_model.protocol (Pbft_model.default 7))
       (byzantine_markov_fleet 7))

let test_horizon_bathtub_dip_flips_recommendation () =
  (* E23: a fleet of bathtub curves looks fine to a static analysis at
     mission end, but the trajectory minimum lands in the infant phase.
     A liveness target between the two values is met by the static
     answer and missed by the honest time-varying one — exactly the
     recommendation dynamic analysis exists to flip. *)
  let fleet = bathtub_fleet () in
  let proto = Raft_model.protocol (Raft_model.default 5) in
  let static = Analysis.run ~at:8766. proto fleet in
  let times = Analysis.horizon_times ~horizon:8766. ~rounds:12 in
  let points = Analysis.run_horizon ~times proto fleet in
  let min_p_live =
    List.fold_left
      (fun acc (p : Analysis.horizon_point) ->
        Float.min acc p.result.Analysis.p_live)
      1. points
  in
  Alcotest.(check bool) "trajectory dips below the static answer" true
    (min_p_live < static.Analysis.p_live);
  let target = (min_p_live +. static.Analysis.p_live) /. 2. in
  Alcotest.(check bool) "static analysis accepts the deployment" true
    (static.Analysis.p_live >= target);
  Alcotest.(check bool) "trajectory minimum rejects it" true
    (min_p_live < target)

(* --- Equivalence (E3) -------------------------------------------------------- *)

let test_equivalence_e3 () =
  (* Three nodes at 1% have the same nines as nine nodes at 8% — at the
     paper's two-decimal rounding (99.9702% vs 99.9686%), i.e. with a
     half-unit-in-the-last-digit tolerance. *)
  let target = Equivalence.raft_reliability ~n:3 ~p:0.01 in
  (match Equivalence.min_raft_cluster ~target ~p:0.08 ~tolerance:5e-5 () with
  | Some e ->
      Alcotest.(check int) "nine nodes" 9 e.Equivalence.n;
      Alcotest.(check bool) "same percentage at 2 decimals" true
        (Float.round (e.Equivalence.p_safe_live *. 1e4) = Float.round (target *. 1e4))
  | None -> Alcotest.fail "equivalence must exist");
  (* Without the rounding tolerance the strict answer is 11 nodes —
     worth pinning so the distinction stays visible. *)
  match Equivalence.min_raft_cluster ~target ~p:0.08 () with
  | Some e -> Alcotest.(check int) "strict answer" 11 e.Equivalence.n
  | None -> Alcotest.fail "strict equivalence must exist"

let test_equivalence_unreachable () =
  Alcotest.(check bool) "p=40% cannot reach 6 nines within 99 nodes" true
    (Equivalence.min_raft_cluster ~target:0.999999 ~p:0.4 () = None)

let test_equivalence_table () =
  let sizes =
    List.map
      (fun p ->
        match Equivalence.min_raft_cluster ~target:0.9997 ~p ~tolerance:5e-5 () with
        | Some e -> e.Equivalence.n
        | None -> -1)
      [ 0.01; 0.02; 0.08 ]
  in
  (* Cluster size must grow as nodes get flakier. *)
  Alcotest.(check (list int)) "3,5,9" [ 3; 5; 9 ] sizes

(* --- Upright dual-threshold model ------------------------------------------ *)

let test_upright_validation () =
  Alcotest.check_raises "r > u" (Invalid_argument "Upright_model.make: need 0 <= r <= u")
    (fun () -> ignore (Upright_model.make ~n:10 ~u:1 ~r:2));
  Alcotest.check_raises "n too small"
    (Invalid_argument "Upright_model.make: need n >= 2u + r + 1") (fun () ->
      ignore (Upright_model.make ~n:5 ~u:2 ~r:1));
  let p = Upright_model.max_params ~n:7 ~r:1 in
  Alcotest.(check int) "u" 2 p.Upright_model.u

let test_upright_predicates () =
  let proto = Upright_model.protocol (Upright_model.make ~n:7 ~u:2 ~r:1) in
  let config byz crash =
    Array.init 7 (fun i ->
        if i < byz then Config.Byzantine
        else if i < byz + crash then Config.Crashed
        else Config.Correct)
  in
  Alcotest.(check bool) "1 byz safe" true (proto.Protocol.safe.Protocol.full (config 1 0));
  Alcotest.(check bool) "2 byz unsafe" false (proto.Protocol.safe.Protocol.full (config 2 0));
  (* Crashes don't spend the Byzantine budget. *)
  Alcotest.(check bool) "2 crashes safe" true (proto.Protocol.safe.Protocol.full (config 0 2));
  Alcotest.(check bool) "1 byz + 1 crash live" true
    (proto.Protocol.live.Protocol.full (config 1 1));
  Alcotest.(check bool) "3 faults dead" false (proto.Protocol.live.Protocol.full (config 1 2))

let test_upright_vs_classics_ordering () =
  (* Mixed faults (mostly crashes): Upright's safety must dominate
     Raft's (byz <= 1 vs byz = 0 on the same configurations), and
     PBFT's safety must dominate Upright's (byz <= 2 vs byz <= 1). *)
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:0.1 ~n:7 ~p:0.05 () in
  let results = Upright_model.compare_with_classics fleet in
  let get name = (List.assoc name results).Analysis.p_safe in
  Alcotest.(check bool) "raft <= upright (safety)" true (get "raft" <= get "upright");
  Alcotest.(check bool) "upright <= pbft (safety)" true (get "upright" <= get "pbft");
  (* And Upright's liveness dominates PBFT's liveness-against-Byzantine
     budget is the same, but against pure crashes both tolerate u=2: they
     coincide on this fleet's crash-heavy mixture only if thresholds
     agree; just assert everything is a probability. *)
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "in [0,1]" true (r.Analysis.p_live >= 0. && r.Analysis.p_live <= 1.))
    results

(* --- End-to-end guarantees -------------------------------------------------- *)

let e2e_spec = { Markov.Repair_model.n = 5; quorum = 3; lambda = 1e-5; mu = 1. /. 24. }

let test_end_to_end_composition () =
  let t = End_to_end.evaluate ~spec:e2e_spec ~failover_hours:0.01 ~mission_hours:87_660. in
  check_float ~eps:1e-12 "failover loss = lambda * failover" (1e-5 *. 0.01)
    t.End_to_end.failover_unavailability;
  check_float ~eps:1e-12 "availability composes"
    (t.End_to_end.quorum_availability -. t.End_to_end.failover_unavailability)
    t.End_to_end.availability;
  let mttdl = Markov.Repair_model.mttdl e2e_spec in
  check_float ~eps:1e-12 "durability = exp(-mission/mttdl)"
    (exp (-87_660. /. mttdl))
    t.End_to_end.durability

(* An SLO of [a] availability nines and [d] durability nines. *)
let meets (t : End_to_end.t) ~availability_nines ~durability_nines =
  t.End_to_end.availability >= Prob.Nines.to_prob availability_nines
  && t.End_to_end.durability >= Prob.Nines.to_prob durability_nines

let test_end_to_end_meets () =
  let t = End_to_end.evaluate ~spec:e2e_spec ~failover_hours:0.01 ~mission_hours:8766. in
  Alcotest.(check bool) "meets modest SLO" true
    (meets t ~availability_nines:4. ~durability_nines:4.);
  Alcotest.(check bool) "fails absurd SLO" false
    (meets t ~availability_nines:15. ~durability_nines:4.)

let test_end_to_end_slow_recovery_kills_availability () =
  (* The paper: a live protocol with intolerably slow recovery misses
     the availability SLO. *)
  let fast = End_to_end.evaluate ~spec:e2e_spec ~failover_hours:0.01 ~mission_hours:8766. in
  let slow = End_to_end.evaluate ~spec:e2e_spec ~failover_hours:100. ~mission_hours:8766. in
  Alcotest.(check bool) "fast meets 4 nines" true
    (meets fast ~availability_nines:4. ~durability_nines:1.);
  Alcotest.(check bool) "slow misses 4 nines" false
    (meets slow ~availability_nines:4. ~durability_nines:1.);
  (* Durability is unaffected by failover speed. *)
  check_float ~eps:1e-15 "durability unchanged" fast.End_to_end.durability
    slow.End_to_end.durability

let test_end_to_end_required_failover () =
  (match End_to_end.required_failover_hours ~spec:e2e_spec ~availability_nines:5. with
  | Some budget ->
      let at_budget =
        End_to_end.evaluate ~spec:e2e_spec ~failover_hours:budget ~mission_hours:8766.
      in
      check_float ~eps:1e-9 "budget is exact" (Prob.Nines.to_prob 5.)
        at_budget.End_to_end.availability
  | None -> Alcotest.fail "5 nines must be attainable");
  Alcotest.(check bool) "unattainable target" true
    (End_to_end.required_failover_hours ~spec:e2e_spec ~availability_nines:16. = None)

(* --- Schema ---------------------------------------------------------------------- *)

let test_schema_derives_raft_theorem () =
  (* The schema-derived predicates coincide with Theorem 3.2 on every
     (byz, crashed) count. *)
  List.iter
    (fun n ->
      let derived = Schema.protocol (Schema.raft n) in
      let theorem = Raft_model.protocol (Raft_model.default n) in
      let d_safe = Option.get derived.Protocol.safe.Protocol.by_count in
      let t_safe = Option.get theorem.Protocol.safe.Protocol.by_count in
      let d_live = Option.get derived.Protocol.live.Protocol.by_count in
      let t_live = Option.get theorem.Protocol.live.Protocol.by_count in
      for byz = 0 to n do
        for crashed = 0 to n - byz do
          Alcotest.(check bool)
            (Printf.sprintf "raft n=%d byz=%d crash=%d safe" n byz crashed)
            (t_safe ~byz ~crashed) (d_safe ~byz ~crashed);
          Alcotest.(check bool)
            (Printf.sprintf "raft n=%d byz=%d crash=%d live" n byz crashed)
            (t_live ~byz ~crashed) (d_live ~byz ~crashed)
        done
      done)
    [ 1; 3; 5; 7; 9 ]

let test_schema_derives_pbft_theorem () =
  List.iter
    (fun n ->
      let derived = Schema.protocol (Schema.pbft n) in
      let theorem = Pbft_model.protocol (Pbft_model.default n) in
      let d_safe = Option.get derived.Protocol.safe.Protocol.by_count in
      let t_safe = Option.get theorem.Protocol.safe.Protocol.by_count in
      let d_live = Option.get derived.Protocol.live.Protocol.by_count in
      let t_live = Option.get theorem.Protocol.live.Protocol.by_count in
      for byz = 0 to n do
        for crashed = 0 to n - byz do
          Alcotest.(check bool)
            (Printf.sprintf "pbft n=%d byz=%d crash=%d safe" n byz crashed)
            (t_safe ~byz ~crashed) (d_safe ~byz ~crashed);
          Alcotest.(check bool)
            (Printf.sprintf "pbft n=%d byz=%d crash=%d live" n byz crashed)
            (t_live ~byz ~crashed) (d_live ~byz ~crashed)
        done
      done)
    [ 4; 5; 7; 8; 10 ]

let test_schema_validation () =
  Alcotest.check_raises "unknown step" (Invalid_argument "Schema: unknown step \"nope\"")
    (fun () ->
      Schema.validate
        {
          Schema.name = "bad";
          n = 3;
          quorums = [ ("per", 2) ];
          byzantine_faults = false;
          safety = [ Schema.Node_intersection ("per", "nope") ];
          liveness_steps = [];
          liveness = [];
        });
  Alcotest.check_raises "quorum out of range"
    (Invalid_argument "Schema: quorum \"per\" out of range") (fun () ->
      Schema.validate
        {
          Schema.name = "bad";
          n = 3;
          quorums = [ ("per", 4) ];
          byzantine_faults = false;
          safety = [];
          liveness_steps = [];
          liveness = [];
        })

let test_schema_custom_protocol () =
  (* A user-defined CFT protocol with asymmetric quorums (flexible
     Paxos flavour): q_per=2, q_vc=4 over n=5. *)
  let custom =
    {
      Schema.name = "flexible";
      n = 5;
      quorums = [ ("per", 2); ("vc", 4) ];
      byzantine_faults = false;
      safety = [ Schema.Node_intersection ("per", "vc"); Schema.Node_intersection ("vc", "vc") ];
      liveness_steps = [ "per"; "vc" ];
      liveness = [];
    }
  in
  let fleet = Faultmodel.Fleet.uniform ~n:5 ~p:0.05 () in
  let derived = Analysis.run (Schema.protocol custom) fleet in
  let reference =
    Analysis.run (Raft_model.protocol (Raft_model.flexible ~n:5 ~q_per:2 ~q_vc:4)) fleet
  in
  check_float ~eps:1e-12 "matches flexible raft" reference.Analysis.p_safe_live
    derived.Analysis.p_safe_live

(* --- Forensics ------------------------------------------------------------------ *)

let test_forensics_thresholds () =
  let params = Pbft_model.default 7 in
  (* f = 2: safe through byz=2, accountable through byz=4, lost at 5. *)
  let safe_or_accountable byz =
    by_count (Pbft_model.safe_or_accountable params).Protocol.safe ~byz ~crashed:0
  in
  Alcotest.(check bool) "byz=2 accountable" true (safe_or_accountable 2);
  Alcotest.(check bool) "byz=4 accountable" true (safe_or_accountable 4);
  Alcotest.(check bool) "byz=5 lost" false (safe_or_accountable 5)

let test_forensics_probability_dominates_safety () =
  let params = Pbft_model.default 4 in
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:4 ~p:0.05 () in
  let plain = Analysis.run (Pbft_model.protocol params) fleet in
  let forensic = Analysis.run (Pbft_model.safe_or_accountable params) fleet in
  Alcotest.(check bool) "safe-or-accountable >= safe" true
    (forensic.Analysis.p_safe >= plain.Analysis.p_safe);
  (* With f=1: safe needs byz<=1, accountable holds through byz<=2. *)
  check_float ~eps:1e-12 "exact accountable mass"
    (Prob.Distribution.binomial_cdf ~n:4 ~p:0.05 2)
    forensic.Analysis.p_safe;
  (* Liveness unchanged by the weaker safety notion. *)
  check_float ~eps:1e-15 "liveness unchanged" plain.Analysis.p_live forensic.Analysis.p_live

(* --- Sweep ---------------------------------------------------------------------- *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_sweep_raft_grid_matches_closed_form () =
  let table = Sweep.raft_grid ~ns:[ 3; 5 ] ~ps:[ 0.01; 0.08 ] () in
  let rendered = Report.render table in
  (* Spot checks: the Table 2 corner cells appear. *)
  List.iter
    (fun cell ->
      Alcotest.(check bool) (cell ^ " present") true (contains_substring rendered cell))
    [ "99.97%"; "98.18%"; "99.9990%"; "99.55%" ]

let test_sweep_timeline_tracks_curves () =
  (* Wear-out fleet: the timeline must decay monotonically after the
     infancy dip. *)
  let aging = Faultmodel.Fault_curve.Weibull { shape = 3.; scale = 30_000. } in
  let fleet =
    Faultmodel.Fleet.of_nodes (List.init 5 (fun id -> Faultmodel.Node.make ~id aging))
  in
  let table = Sweep.timeline fleet ~times:[ 1000.; 10_000.; 30_000. ] in
  let csv = Report.to_csv table in
  match String.split_on_char '\n' (String.trim csv) with
  | [ _header; r1; r2; r3 ] ->
      let nines row =
        match String.split_on_char ',' row with
        | [ _; _; nines ] -> float_of_string nines
        | _ -> Alcotest.fail "row shape"
      in
      Alcotest.(check bool) "reliability decays with wear" true
        (nines r1 > nines r2 && nines r2 > nines r3)
  | _ -> Alcotest.fail "unexpected timeline shape"

let test_sweep_frontier_monotone () =
  let table =
    Sweep.min_cluster_frontier
      ~targets:[ Prob.Nines.to_prob 3. ]
      ~ps:[ 0.01; 0.02; 0.08 ]
      ()
  in
  let csv = Report.to_csv table in
  (* CSV round-trip: header + one row; sizes grow with p. *)
  match String.split_on_char '\n' (String.trim csv) with
  | [ _header; row ] -> (
      match String.split_on_char ',' row with
      | [ _target; a; b; c ] ->
          let a = int_of_string a and b = int_of_string b and c = int_of_string c in
          Alcotest.(check bool) "monotone in p" true (a <= b && b <= c)
      | _ -> Alcotest.fail "unexpected row shape")
  | _ -> Alcotest.fail "unexpected csv shape"

(* --- Stake model -------------------------------------------------------------- *)

let test_stake_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Stake_model.make: empty stakes")
    (fun () -> ignore (Stake_model.make [||]));
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stake_model.make: stakes must be positive") (fun () ->
      ignore (Stake_model.make [| 1.; 0. |]))

let test_stake_uniform_matches_counts () =
  (* Equal stakes: the stake thresholds reduce to node-count
     thresholds. For n=4, byz bound 1/3: safe iff byz stake < 4/3,
     i.e. byz <= 1 node — same as PBFT's f=1. *)
  let params = Stake_model.make (Array.make 4 1.) in
  let proto = Stake_model.protocol params in
  let config byz =
    Array.init 4 (fun i -> if i < byz then Config.Byzantine else Config.Correct)
  in
  Alcotest.(check bool) "1 byz safe" true (proto.Protocol.safe.Protocol.full (config 1));
  Alcotest.(check bool) "2 byz unsafe" false (proto.Protocol.safe.Protocol.full (config 2))

let test_stake_whale_dominates () =
  (* One node holding 50% of stake: its compromise alone breaks
     safety, regardless of the other ten. *)
  let stakes = Array.append [| 10. |] (Array.make 10 1.) in
  let params = Stake_model.make stakes in
  let proto = Stake_model.protocol params in
  let whale_byz =
    Array.init 11 (fun i -> if i = 0 then Config.Byzantine else Config.Correct)
  in
  Alcotest.(check bool) "whale alone breaks safety" false
    (proto.Protocol.safe.Protocol.full whale_byz);
  (* Three small nodes (3/20 of stake) do not. *)
  let smalls_byz =
    Array.init 11 (fun i -> if i >= 1 && i <= 3 then Config.Byzantine else Config.Correct)
  in
  Alcotest.(check bool) "three smalls are fine" true
    (proto.Protocol.safe.Protocol.full smalls_byz);
  Alcotest.(check int) "nakamoto coefficient" 1 (Stake_model.nakamoto_coefficient params)

let test_stake_analysis_whale_vs_flat () =
  (* Same per-node fault probabilities: concentrated stake is less
     safe than flat stake because one compromise suffices. *)
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:9 ~p:0.03 () in
  let flat = Stake_model.protocol (Stake_model.make (Array.make 9 1.)) in
  let whale =
    Stake_model.protocol (Stake_model.make (Array.append [| 8. |] (Array.make 8 1.)))
  in
  let r_flat = Analysis.run flat fleet in
  let r_whale = Analysis.run whale fleet in
  Alcotest.(check bool) "flat safer" true (r_flat.Analysis.p_safe > r_whale.Analysis.p_safe);
  (* Identity-dependent predicates go through the enumeration engine. *)
  Alcotest.(check bool) "enumeration engine used" true
    (String.length r_flat.Analysis.engine >= 11
    && String.sub r_flat.Analysis.engine 0 11 = "enumeration")

let test_stake_nakamoto () =
  let params = Stake_model.make [| 5.; 3.; 2.; 1.; 1. |] in
  (* Total 12, byz bound 1/3 -> threshold 4: the largest node alone
     (5) reaches it. *)
  Alcotest.(check int) "one node" 1 (Stake_model.nakamoto_coefficient params);
  let flat = Stake_model.make (Array.make 9 1.) in
  Alcotest.(check int) "three of nine" 3 (Stake_model.nakamoto_coefficient flat)

(* --- Report -------------------------------------------------------------- *)

let test_report_render () =
  let t = Report.create ~header:[ "a"; "bb" ] in
  Report.add_row t [ "1"; "2" ];
  Report.add_row t [ "333" ];
  let rendered = Report.render t in
  Alcotest.(check bool) "contains header" true
    (String.length rendered > 0
    && String.sub rendered 0 1 = "a");
  (* Short rows are padded, not rejected. *)
  Alcotest.(check bool) "has three lines plus separator" true
    (List.length (String.split_on_char '\n' (String.trim rendered)) = 4)

let test_report_row_too_wide () =
  let t = Report.create ~header:[ "a" ] in
  Alcotest.check_raises "too wide" (Invalid_argument "Report.add_row: row wider than header")
    (fun () -> Report.add_row t [ "1"; "2" ])

let test_report_csv () =
  let t = Report.create ~header:[ "name"; "value" ] in
  Report.add_row t [ "plain"; "1" ];
  Report.add_row t [ "with,comma"; "quo\"te" ];
  Alcotest.(check string) "csv escaping"
    "name,value\nplain,1\n\"with,comma\",\"quo\"\"te\"\n" (Report.to_csv t)

(* --- Paper table regression (T1, T2) ---------------------------------------- *)

let paper_table1 =
  (* N, quorum sizes, then (safe, live, safe&live) cells as
     (value, decimals printed in the percentage). *)
  [
    (4, (3, 3, 3, 2), (0.9994, 2), (0.9994, 2), (0.9994, 2));
    (5, (4, 4, 4, 2), (0.999990, 4), (0.9990, 2), (0.9990, 2));
    (7, (5, 5, 5, 3), (0.99997, 3), (0.99997, 3), (0.99997, 3));
    (8, (6, 6, 6, 3), (0.9999993, 5), (0.99995, 3), (0.99995, 3));
  ]

(* Shared with Table 2 below: tolerance of 1.5 units in the last digit
   the paper printed (it truncates at least one cell). *)
let printed_tolerance decimals = 1.5 *. (10. ** Float.neg (float_of_int (decimals + 2)))

let test_paper_table1_regression () =
  List.iter
    (fun (n, (q_eq, q_per, q_vc, q_vc_t), safe, live, both) ->
      let params = Pbft_model.make ~n ~q_eq ~q_per ~q_vc ~q_vc_t in
      let defaults = Pbft_model.default n in
      Alcotest.(check bool)
        (Printf.sprintf "default params match paper n=%d" n)
        true
        (defaults = params);
      let fleet = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n ~p:0.01 () in
      let r = Analysis.run (Pbft_model.protocol params) fleet in
      let check_cell label (expected, decimals) actual =
        Alcotest.(check bool)
          (Printf.sprintf "n=%d %s" n label)
          true
          (Float.abs (expected -. actual) < printed_tolerance decimals)
      in
      check_cell "safe" safe r.Analysis.p_safe;
      check_cell "live" live r.Analysis.p_live;
      check_cell "safe&live" both r.Analysis.p_safe_live)
    paper_table1

let paper_table2 =
  (* N, (qper, qvc), S&L cells as (value, decimals printed in the
     percentage) at p = 1, 2, 4, 8 percent. *)
  [
    (3, (2, 2), [ (0.9997, 2); (0.9988, 2); (0.9953, 2); (0.9818, 2) ]);
    (5, (3, 3), [ (0.999990, 4); (0.99992, 3); (0.9994, 2); (0.9955, 2) ]);
    (7, (4, 4), [ (0.9999997, 5); (0.999995, 4); (0.99992, 3); (0.9988, 2) ]);
    (9, (5, 5), [ (0.99999998, 6); (0.9999996, 5); (0.999988, 4); (0.9997, 2) ]);
  ]

let test_paper_table2_regression () =
  List.iter
    (fun (n, (q_per, q_vc), cells) ->
      let defaults = Raft_model.default n in
      Alcotest.(check int) "qper" q_per defaults.Raft_model.q_per;
      Alcotest.(check int) "qvc" q_vc defaults.Raft_model.q_vc;
      List.iteri
        (fun i (expected, decimals) ->
          let p = List.nth [ 0.01; 0.02; 0.04; 0.08 ] i in
          let actual = Raft_model.safe_and_live_uniform ~n ~p in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d p=%g" n p)
            true
            (Float.abs (expected -. actual) < printed_tolerance decimals))
        cells)
    paper_table2

let suite =
  [
    Alcotest.test_case "config counts" `Quick test_config_counts;
    Alcotest.test_case "config of subset" `Quick test_config_of_failed_subset;
    Alcotest.test_case "config probability" `Quick test_config_probability;
    Alcotest.test_case "config mass" `Quick test_config_probabilities_sum_to_one;
    Alcotest.test_case "joint DP vs enumeration" `Quick
      test_joint_count_distribution_vs_enumeration;
    QCheck_alcotest.to_alcotest prop_joint_distribution_matches_enumeration;
    Alcotest.test_case "config sampling" `Slow test_config_sample_distribution;
    Alcotest.test_case "raft default quorums" `Quick test_raft_default_quorums;
    Alcotest.test_case "raft structural safety" `Quick test_raft_structural_safety_conditions;
    Alcotest.test_case "raft byz voids safety" `Quick test_raft_byzantine_voids_safety;
    Alcotest.test_case "raft liveness threshold" `Quick test_raft_liveness_threshold;
    Alcotest.test_case "raft closed form = engine" `Quick test_raft_closed_form_matches_engine;
    Alcotest.test_case "raft flexible validation" `Quick test_raft_flexible_validation;
    Alcotest.test_case "pbft default params" `Quick test_pbft_default_params;
    Alcotest.test_case "pbft safety thresholds" `Quick test_pbft_safety_thresholds;
    Alcotest.test_case "pbft liveness conditions" `Quick test_pbft_liveness_conditions;
    Alcotest.test_case "pbft crashes safe" `Quick test_pbft_crashes_do_not_break_safety;
    Alcotest.test_case "pbft safety monotone" `Quick test_pbft_safety_monotone_in_byz;
    Alcotest.test_case "engines agree (CFT)" `Quick test_engines_agree_heterogeneous;
    Alcotest.test_case "engines agree (BFT ternary)" `Quick test_engines_agree_bft_ternary;
    Alcotest.test_case "MC brackets exact" `Slow test_monte_carlo_brackets_exact;
    Alcotest.test_case "fleet size mismatch" `Quick test_analysis_fleet_size_mismatch;
    Alcotest.test_case "analysis at time" `Quick test_analysis_at_time;
    Alcotest.test_case "correlated shock analysis" `Slow test_correlated_analysis_shock;
    Alcotest.test_case "auto engine selection" `Slow test_auto_engine_selection;
    QCheck_alcotest.to_alcotest prop_reliability_monotone_in_p;
    Alcotest.test_case "durability uniform equal" `Quick test_durability_uniform_fleet_all_equal;
    Alcotest.test_case "durability ordering" `Quick test_durability_ordering;
    Alcotest.test_case "durability worst-case value" `Quick test_durability_worst_case_value;
    Alcotest.test_case "durability random mean" `Quick test_durability_random_is_symmetric_mean;
    Alcotest.test_case "durability validation" `Quick test_durability_validation;
    Alcotest.test_case "tradeoff 4 vs 5 (E6)" `Quick test_tradeoff_pbft_4_vs_5;
    Alcotest.test_case "tradeoff 5 safer than 7 (E6)" `Quick test_tradeoff_5_safer_than_7;
    Alcotest.test_case "tradeoff sweep" `Quick test_tradeoff_sweep_range;
    Alcotest.test_case "run_horizon static is run" `Quick
      test_run_horizon_static_is_run;
    Alcotest.test_case "run_horizon incremental matches exact" `Quick
      test_run_horizon_incremental_matches_exact;
    Alcotest.test_case "run_horizon = run at every round" `Quick
      test_run_horizon_is_run;
    Alcotest.test_case "horizon bathtub dip (E23)" `Quick
      test_horizon_bathtub_dip_flips_recommendation;
    Alcotest.test_case "equivalence E3" `Quick test_equivalence_e3;
    Alcotest.test_case "equivalence unreachable" `Quick test_equivalence_unreachable;
    Alcotest.test_case "equivalence table" `Quick test_equivalence_table;
    Alcotest.test_case "upright validation" `Quick test_upright_validation;
    Alcotest.test_case "upright predicates" `Quick test_upright_predicates;
    Alcotest.test_case "upright vs classics" `Quick test_upright_vs_classics_ordering;
    Alcotest.test_case "end-to-end composition" `Quick test_end_to_end_composition;
    Alcotest.test_case "end-to-end meets" `Quick test_end_to_end_meets;
    Alcotest.test_case "slow recovery kills availability" `Quick
      test_end_to_end_slow_recovery_kills_availability;
    Alcotest.test_case "required failover budget" `Quick test_end_to_end_required_failover;
    Alcotest.test_case "schema derives Raft theorem" `Quick test_schema_derives_raft_theorem;
    Alcotest.test_case "schema derives PBFT theorem" `Quick test_schema_derives_pbft_theorem;
    Alcotest.test_case "schema validation" `Quick test_schema_validation;
    Alcotest.test_case "schema custom protocol" `Quick test_schema_custom_protocol;
    Alcotest.test_case "forensics thresholds" `Quick test_forensics_thresholds;
    Alcotest.test_case "forensics probability" `Quick
      test_forensics_probability_dominates_safety;
    Alcotest.test_case "sweep raft grid" `Quick test_sweep_raft_grid_matches_closed_form;
    Alcotest.test_case "sweep frontier monotone" `Quick test_sweep_frontier_monotone;
    Alcotest.test_case "sweep timeline" `Quick test_sweep_timeline_tracks_curves;
    Alcotest.test_case "stake validation" `Quick test_stake_validation;
    Alcotest.test_case "stake uniform = counts" `Quick test_stake_uniform_matches_counts;
    Alcotest.test_case "stake whale dominates" `Quick test_stake_whale_dominates;
    Alcotest.test_case "stake whale vs flat analysis" `Quick test_stake_analysis_whale_vs_flat;
    Alcotest.test_case "stake nakamoto" `Quick test_stake_nakamoto;
    Alcotest.test_case "report render" `Quick test_report_render;
    Alcotest.test_case "report too wide" `Quick test_report_row_too_wide;
    Alcotest.test_case "report csv" `Quick test_report_csv;
    Alcotest.test_case "paper Table 1 regression" `Quick test_paper_table1_regression;
    Alcotest.test_case "paper Table 2 regression" `Quick test_paper_table2_regression;
    QCheck_alcotest.to_alcotest prop_count_dp_matches_reference;
    Alcotest.test_case "count DP ≥20× the reference (one kind), ≥1.3× (mixed)" `Slow
      test_count_dp_speed;
  ]
