(* Tests for the executable Raft implementation: elections, replication,
   fault tolerance, flexible quorums, and safety-violation visibility
   under deliberately broken sizings. *)

open Raft_sim

let all n = List.init n Fun.id

let run_cluster ?q_vote ?q_replicate ?(n = 5) ?(seed = 7) ?(commands = 10)
    ?(crash = []) ?(until = 30_000.) () =
  let cluster = Raft_cluster.create ~n ~seed ?q_vote ?q_replicate () in
  let cmds = List.init commands (fun i -> 1000 + i) in
  Raft_cluster.inject cluster (Dessim.Fault_injector.of_failed_nodes crash);
  Raft_cluster.submit_workload cluster ~commands:cmds ~start:500. ~interval:100.;
  Raft_cluster.run cluster ~until;
  let correct = List.filter (fun i -> not (List.mem i crash)) (all n) in
  (cluster, Raft_checker.check cluster ~expected:cmds ~correct)

let test_healthy_cluster_commits_everything () =
  let cluster, report = run_cluster () in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "live" true report.Raft_checker.live;
  (* All five logs fully caught up. *)
  Array.iter
    (fun count -> Alcotest.(check int) "all applied" 10 count)
    report.Raft_checker.applied_counts;
  (* Exactly one leader stands at the end. *)
  Alcotest.(check int) "single leader" 1 (List.length (Raft_cluster.leader_ids cluster))

let test_identical_logs () =
  let cluster, _ = run_cluster ~seed:8 () in
  let reference = Raft_cluster.committed cluster 0 in
  for i = 1 to 4 do
    Alcotest.(check (list int)) "same log" reference (Raft_cluster.committed cluster i)
  done

let test_minority_crash_still_live () =
  let _, report = run_cluster ~crash:[ 0; 1 ] ~seed:9 () in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "live" true report.Raft_checker.live

let test_majority_crash_not_live_but_safe () =
  let _, report = run_cluster ~crash:[ 0; 1; 2 ] ~seed:10 () in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "not live" false report.Raft_checker.live

let test_leader_crash_failover () =
  (* Let a leader emerge, kill it, and require continued progress. *)
  let n = 5 in
  let cluster = Raft_cluster.create ~n ~seed:11 () in
  let cmds = List.init 10 (fun i -> 2000 + i) in
  (* Find and crash the leader at t=2000 via a scheduled probe. *)
  let crashed = ref (-1) in
  ignore
    (Dessim.Engine.schedule_at (Raft_cluster.engine cluster) ~time:2000. (fun () ->
         match Raft_cluster.leader_ids cluster with
         | leader :: _ ->
             crashed := leader;
             Raft_node.set_down (Raft_cluster.node cluster leader) true
         | [] -> ()));
  Raft_cluster.submit_workload cluster ~commands:cmds ~start:2500. ~interval:100.;
  Raft_cluster.run cluster ~until:40_000.;
  Alcotest.(check bool) "a leader was crashed" true (!crashed >= 0);
  let correct = List.filter (fun i -> i <> !crashed) (all n) in
  let report = Raft_checker.check cluster ~expected:cmds ~correct in
  Alcotest.(check bool) "safe after failover" true (Raft_checker.safe report);
  Alcotest.(check bool) "live after failover" true report.Raft_checker.live

let test_crash_restart_catches_up () =
  let n = 3 in
  let cluster = Raft_cluster.create ~n ~seed:12 () in
  let cmds = List.init 8 (fun i -> 3000 + i) in
  Raft_cluster.inject cluster
    [ (2, Dessim.Fault_injector.Crash_restart { at = 100.; back_at = 5000. }) ];
  Raft_cluster.submit_workload cluster ~commands:cmds ~start:1000. ~interval:100.;
  Raft_cluster.run cluster ~until:40_000.;
  let report = Raft_checker.check cluster ~expected:cmds ~correct:[ 0; 1 ] in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  (* The restarted node must catch up on the log committed while it was
     down (heartbeats repair it). *)
  Alcotest.(check (list int)) "node 2 caught up"
    (Raft_cluster.committed cluster 0)
    (Raft_cluster.committed cluster 2)

let test_unsafe_vote_quorum_split_brain () =
  (* q_vote=2 of 4 violates 2|Qvc| > N; under a partition both halves
     elect, which the election-safety checker must flag. (Seed pinned:
     violations are possibilities, not certainties.) *)
  let cluster = Raft_cluster.create ~n:4 ~seed:5 ~q_vote:2 ~q_replicate:2 () in
  Raft_cluster.partition_at cluster ~time:50. [ 0; 1 ] [ 2; 3 ];
  Raft_cluster.submit_workload cluster
    ~commands:(List.init 10 (fun i -> i))
    ~start:2000. ~interval:100.;
  Raft_cluster.run cluster ~until:30_000.;
  let report = Raft_checker.check cluster ~expected:[] ~correct:(all 4) in
  Alcotest.(check bool) "election safety violated" false
    report.Raft_checker.election_safety_ok;
  Alcotest.(check bool) "violations reported" true (report.Raft_checker.violations <> [])

let test_safe_quorums_survive_partition () =
  (* Same partition, majority quorums: the minority side stalls instead
     of splitting. *)
  let cluster = Raft_cluster.create ~n:4 ~seed:5 () in
  Raft_cluster.partition_at cluster ~time:50. [ 0; 1 ] [ 2; 3 ];
  Raft_cluster.submit_workload cluster
    ~commands:(List.init 10 (fun i -> i))
    ~start:2000. ~interval:100.;
  Raft_cluster.run cluster ~until:30_000.;
  let report = Raft_checker.check cluster ~expected:[] ~correct:(all 4) in
  Alcotest.(check bool) "still safe" true (Raft_checker.safe report)

let test_flexible_quorums_structurally_safe () =
  (* q_replicate=2, q_vote=4 on n=5 satisfies Theorem 3.2; with one
     crash it must stay safe and live (4 nodes can still vote). *)
  let _, report =
    run_cluster ~q_vote:4 ~q_replicate:2 ~crash:[ 4 ] ~seed:13 ~until:60_000. ()
  in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "live" true report.Raft_checker.live

let test_flexible_quorums_vote_liveness_limit () =
  (* The same sizing dies (but stays safe) once only 3 voters remain. *)
  let _, report = run_cluster ~q_vote:4 ~q_replicate:2 ~crash:[ 3; 4 ] ~seed:14 () in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "not live" false report.Raft_checker.live

let test_resilient_to_message_loss () =
  (* 10% of messages dropped: retries (election timeouts, heartbeat
     resends, log repair) must still commit everything. *)
  let cluster = Raft_cluster.create ~n:5 ~seed:3 ~drop_probability:0.1 () in
  let cmds = List.init 10 (fun i -> 100 + i) in
  Raft_cluster.submit_workload cluster ~commands:cmds ~start:1000. ~interval:200.;
  Raft_cluster.run cluster ~until:60_000.;
  let report = Raft_checker.check cluster ~expected:cmds ~correct:(all 5) in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "live despite loss" true report.Raft_checker.live

let test_determinism_same_seed () =
  let c1, _ = run_cluster ~seed:20 () in
  let c2, _ = run_cluster ~seed:20 () in
  for i = 0 to 4 do
    Alcotest.(check (list int))
      (Printf.sprintf "node %d identical" i)
      (Raft_cluster.committed c1 i)
      (Raft_cluster.committed c2 i)
  done

let test_submit_rejected_by_followers () =
  let cluster = Raft_cluster.create ~n:3 ~seed:21 () in
  (* Before any election nobody accepts. *)
  Alcotest.(check bool) "no leader yet" true
    (not (Raft_node.submit (Raft_cluster.node cluster 0) 1));
  Raft_cluster.run cluster ~until:5000.;
  (* After stabilization exactly the leader accepts. *)
  let acceptors = ref 0 in
  for i = 0 to 2 do
    if Raft_node.submit (Raft_cluster.node cluster i) 42 then incr acceptors
  done;
  Alcotest.(check int) "only leader accepts" 1 !acceptors

let test_terms_monotone_under_churn () =
  let cluster = Raft_cluster.create ~n:3 ~seed:22 () in
  Raft_cluster.inject cluster
    [ (0, Dessim.Fault_injector.Crash_restart { at = 1000.; back_at = 3000. });
      (1, Dessim.Fault_injector.Crash_restart { at = 4000.; back_at = 6000. }) ];
  Raft_cluster.run cluster ~until:20_000.;
  (* All nodes end within one term of each other and nonnegative. *)
  let terms = List.map (fun i -> Raft_node.current_term (Raft_cluster.node cluster i)) (all 3) in
  List.iter (fun t -> Alcotest.(check bool) "term nonnegative" true (t >= 0)) terms

let only_leader cluster ~except =
  match List.filter (fun i -> i <> except) (Raft_cluster.leader_ids cluster) with
  | [ leader ] -> leader
  | _ -> Alcotest.fail "expected exactly one leader"

(* Read-index: refused by followers and by a leader with nothing of its
   term committed; confirmed at the commit index once a quorum echoes,
   and inside the call when the leader alone is a quorum. *)
let test_read_index_contract () =
  let cluster = Raft_cluster.create ~n:3 ~seed:21 () in
  Raft_cluster.run cluster ~until:5000.;
  let node = Raft_cluster.node cluster in
  let leader = only_leader cluster ~except:(-1) in
  let follower = if leader = 0 then 1 else 0 in
  Alcotest.(check bool) "a follower refuses" false
    (Raft_node.read_index (node follower) ignore);
  Alcotest.(check bool) "a leader with nothing of its term committed refuses" false
    (Raft_node.read_index (node leader) ignore);
  Alcotest.(check bool) "the put is accepted" true (Raft_node.submit (node leader) 7);
  Raft_cluster.run cluster ~until:6000.;
  let got = ref None in
  Alcotest.(check bool) "the leader starts the read" true
    (Raft_node.read_index (node leader) (fun r -> got := Some r));
  Alcotest.(check (option (option int))) "nothing before the echoes" None !got;
  Raft_cluster.run cluster ~until:6100.;
  Alcotest.(check (option (option int))) "confirmed at the commit index"
    (Some (Some 1)) !got;
  let solo = Raft_cluster.create ~n:1 ~seed:3 () in
  Raft_cluster.run solo ~until:2000.;
  let lone = Raft_cluster.node solo 0 in
  Alcotest.(check bool) "the lone node commits its put" true (Raft_node.submit lone 1);
  let got = ref None in
  Alcotest.(check bool) "the lone leader starts the read" true
    (Raft_node.read_index lone (fun r -> got := Some r));
  Alcotest.(check (option (option int))) "a lone leader confirms inside the call"
    (Some (Some 1)) !got

(* A leader cut off from the majority keeps believing it leads while
   the others elect a new leader and commit past its commit index. Its
   read must never confirm; after the heal it steps down and the read
   fails. *)
let test_read_index_stale_leader () =
  let n = 5 in
  let cluster = Raft_cluster.create ~n ~seed:31 () in
  Raft_cluster.submit_workload cluster ~commands:[ 1; 2; 3 ] ~start:500. ~interval:100.;
  Raft_cluster.run cluster ~until:2000.;
  let old = only_leader cluster ~except:(-1) in
  let old_node = Raft_cluster.node cluster old in
  let warm = ref None in
  ignore (Raft_node.read_index old_node (fun r -> warm := Some r));
  Raft_cluster.run cluster ~until:2100.;
  Alcotest.(check (option (option int))) "a read before the partition confirms"
    (Some (Some 3)) !warm;
  Raft_cluster.partition_at cluster ~time:2100. [ old ]
    (List.filter (fun i -> i <> old) (all n));
  Raft_cluster.run cluster ~until:2101.;
  let read = ref None in
  Alcotest.(check bool) "the cut-off leader starts a read" true
    (Raft_node.read_index old_node (fun r -> read := Some r));
  let read_at = Raft_node.commit_index old_node in
  Raft_cluster.run cluster ~until:4000.;
  let fresh = Raft_cluster.node cluster (only_leader cluster ~except:old) in
  List.iter (fun c -> ignore (Raft_node.submit fresh c)) [ 4; 5; 6 ];
  Raft_cluster.run cluster ~until:6000.;
  Alcotest.(check bool) "the majority commits past the read's index" true
    (Raft_node.commit_index fresh > read_at);
  Alcotest.(check bool) "the old leader still believes it leads" true
    (Raft_node.is_leader old_node);
  Alcotest.(check (option (option int))) "the cut-off read never confirms" None !read;
  Raft_cluster.heal_at cluster ~time:6000.;
  Raft_cluster.run cluster ~until:8000.;
  Alcotest.(check bool) "the old leader steps down" false (Raft_node.is_leader old_node);
  Alcotest.(check (option (option int))) "its read fails" (Some None) !read

let prop_random_minority_crashes_keep_raft_safe_and_live =
  QCheck.Test.make ~count:8 ~name:"random minority crash sets: safe and live"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Prob.Rng.create seed in
      let crash = Prob.Rng.sample_without_replacement rng 2 5 in
      let _, report = run_cluster ~crash ~seed ~commands:5 ~until:40_000. () in
      Raft_checker.safe report && report.Raft_checker.live)

let prop_any_crash_set_is_safe =
  QCheck.Test.make ~count:8 ~name:"arbitrary crash sets never break safety"
    QCheck.(pair (int_range 0 10_000) (int_range 0 4))
    (fun (seed, k) ->
      let rng = Prob.Rng.create seed in
      let crash = Prob.Rng.sample_without_replacement rng k 5 in
      let _, report = run_cluster ~crash ~seed ~commands:5 ~until:20_000. () in
      Raft_checker.safe report)

let suite =
  [
    Alcotest.test_case "healthy cluster" `Quick test_healthy_cluster_commits_everything;
    Alcotest.test_case "identical logs" `Quick test_identical_logs;
    Alcotest.test_case "minority crash live" `Quick test_minority_crash_still_live;
    Alcotest.test_case "majority crash safe, dead" `Quick
      test_majority_crash_not_live_but_safe;
    Alcotest.test_case "leader crash failover" `Quick test_leader_crash_failover;
    Alcotest.test_case "crash-restart catch-up" `Quick test_crash_restart_catches_up;
    Alcotest.test_case "unsafe quorum split brain" `Quick test_unsafe_vote_quorum_split_brain;
    Alcotest.test_case "safe quorums under partition" `Quick
      test_safe_quorums_survive_partition;
    Alcotest.test_case "flexible quorums safe+live" `Quick
      test_flexible_quorums_structurally_safe;
    Alcotest.test_case "flexible quorum liveness limit" `Quick
      test_flexible_quorums_vote_liveness_limit;
    Alcotest.test_case "resilient to message loss" `Quick test_resilient_to_message_loss;
    Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
    Alcotest.test_case "submit routing" `Quick test_submit_rejected_by_followers;
    Alcotest.test_case "terms under churn" `Quick test_terms_monotone_under_churn;
    Alcotest.test_case "read index contract" `Quick test_read_index_contract;
    Alcotest.test_case "read index on a cut-off leader" `Quick
      test_read_index_stale_leader;
    QCheck_alcotest.to_alcotest prop_random_minority_crashes_keep_raft_safe_and_live;
    QCheck_alcotest.to_alcotest prop_any_crash_set_is_safe;
  ]
