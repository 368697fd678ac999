(* Tests for Raft dynamic membership (single-server configuration
   changes): the substrate preemptive reconfiguration executes on. *)

open Raft_sim

let all n = List.init n Fun.id

let test_add_server_catches_up () =
  let c = Raft_cluster.create ~n:5 ~seed:2 ~initial_members:[ 0; 1; 2 ] () in
  let engine = Raft_cluster.engine c in
  Raft_cluster.submit_workload c ~commands:[ 1; 2; 3 ] ~start:1000. ~interval:100.;
  let accepted = ref false in
  ignore
    (Dessim.Engine.schedule_at engine ~time:3000. (fun () ->
         accepted := Raft_cluster.add_server c 3));
  Raft_cluster.submit_workload c ~commands:[ 4; 5 ] ~start:5000. ~interval:100.;
  Raft_cluster.run c ~until:15_000.;
  Alcotest.(check bool) "change accepted" true !accepted;
  (* The new server is a member, caught up, and agrees. *)
  Alcotest.(check bool) "node 3 member" true (Raft_node.is_member (Raft_cluster.node c 3));
  Alcotest.(check (list int)) "node 3 caught up" [ 1; 2; 3; 4; 5 ]
    (Raft_cluster.committed c 3);
  (* The untouched spare stays idle. *)
  Alcotest.(check bool) "node 4 spare" false (Raft_node.is_member (Raft_cluster.node c 4));
  Alcotest.(check (list int)) "node 4 empty" [] (Raft_cluster.committed c 4);
  let report = Raft_checker.check c ~expected:[ 1; 2; 3; 4; 5 ] ~correct:[ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "live" true report.Raft_checker.live

let test_spares_never_campaign () =
  let c = Raft_cluster.create ~n:5 ~seed:3 ~initial_members:[ 0; 1; 2 ] () in
  Raft_cluster.run c ~until:10_000.;
  List.iter
    (fun (e : Dessim.Trace.entry) ->
      if e.tag = "candidate" && (e.node = 3 || e.node = 4) then
        Alcotest.failf "spare %d campaigned" e.node)
    (Dessim.Trace.entries (Raft_cluster.trace c));
  (* And leadership settles among the members. *)
  match Raft_cluster.current_leader c with
  | Some leader -> Alcotest.(check bool) "leader is a member" true (leader < 3)
  | None -> Alcotest.fail "no leader"

let test_remove_follower () =
  let c = Raft_cluster.create ~n:4 ~seed:4 ~initial_members:[ 0; 1; 2; 3 ] () in
  let engine = Raft_cluster.engine c in
  Raft_cluster.submit_workload c ~commands:[ 1; 2 ] ~start:1000. ~interval:100.;
  let removed = ref (-1) in
  ignore
    (Dessim.Engine.schedule_at engine ~time:3000. (fun () ->
         (* Remove some follower (never the leader). *)
         match Raft_cluster.current_leader c with
         | Some leader ->
             let victim = List.find (fun u -> u <> leader) [ 0; 1; 2; 3 ] in
             if Raft_cluster.remove_server c victim then removed := victim
         | None -> ()));
  ignore
    (Dessim.Engine.schedule_at engine ~time:5000. (fun () ->
         if !removed >= 0 then Raft_node.set_down (Raft_cluster.node c !removed) true));
  Raft_cluster.submit_workload c ~commands:[ 3; 4 ] ~start:6000. ~interval:100.;
  Raft_cluster.run c ~until:20_000.;
  Alcotest.(check bool) "a follower was removed" true (!removed >= 0);
  (match Raft_cluster.members_view c with
  | Some members ->
      Alcotest.(check int) "three members left" 3 (List.length members);
      Alcotest.(check bool) "victim gone" false (List.mem !removed members)
  | None -> Alcotest.fail "no leader at end");
  let correct = List.filter (fun u -> u <> !removed) (all 4) in
  let report = Raft_checker.check c ~expected:[ 1; 2; 3; 4 ] ~correct in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "live for remaining members" true report.Raft_checker.live

let test_leader_cannot_remove_itself () =
  let c = Raft_cluster.create ~n:3 ~seed:5 ~initial_members:[ 0; 1; 2 ] () in
  Raft_cluster.run c ~until:3000.;
  match Raft_cluster.current_leader c with
  | Some leader ->
      Alcotest.(check bool) "refused" false (Raft_cluster.remove_server c leader)
  | None -> Alcotest.fail "no leader"

let test_single_server_change_rule () =
  let c = Raft_cluster.create ~n:6 ~seed:6 ~initial_members:[ 0; 1; 2 ] () in
  Raft_cluster.run c ~until:3000.;
  match Raft_cluster.current_leader c with
  | None -> Alcotest.fail "no leader"
  | Some leader ->
      let node = Raft_cluster.node c leader in
      let members = Raft_node.members node in
      (* Adding two servers at once violates the single-change rule. *)
      Alcotest.(check bool) "two adds refused" false
        (Raft_node.submit_config node (4 :: 5 :: members));
      (* Empty config refused. *)
      Alcotest.(check bool) "empty refused" false (Raft_node.submit_config node []);
      (* Out-of-universe refused. *)
      Alcotest.(check bool) "out of universe refused" false
        (Raft_node.submit_config node (9 :: members));
      (* A single add is fine. *)
      Alcotest.(check bool) "single add ok" true
        (Raft_node.submit_config node (4 :: members))

let test_static_mode_rejects_config () =
  let c = Raft_cluster.create ~n:3 ~seed:7 () in
  Raft_cluster.run c ~until:3000.;
  match Raft_cluster.current_leader c with
  | Some leader ->
      Alcotest.(check bool) "static refuses" false
        (Raft_node.submit_config (Raft_cluster.node c leader) [ 0; 1 ])
  | None -> Alcotest.fail "no leader"

let test_shrunk_cluster_quorum () =
  (* After shrinking 5 -> 3 members, a single crash must still be
     tolerated (majority of 3 is 2). *)
  let c = Raft_cluster.create ~n:5 ~seed:8 ~initial_members:(all 5) () in
  let engine = Raft_cluster.engine c in
  let shrunk = ref false in
  ignore
    (Dessim.Engine.schedule_at engine ~time:2000. (fun () ->
         ignore (Raft_cluster.remove_server c 4)));
  ignore
    (Dessim.Engine.schedule_at engine ~time:4000. (fun () ->
         ignore (Raft_cluster.remove_server c 3)));
  ignore
    (Dessim.Engine.schedule_at engine ~time:6000. (fun () ->
         match Raft_cluster.members_view c with
         | Some members when List.length members = 3 ->
             shrunk := true;
             Raft_node.set_down (Raft_cluster.node c 3) true;
             Raft_node.set_down (Raft_cluster.node c 4) true;
             (* Crash one of the three remaining members. *)
             (match Raft_cluster.current_leader c with
             | Some leader ->
                 let victim = List.find (fun u -> u <> leader) members in
                 Raft_node.set_down (Raft_cluster.node c victim) true
             | None -> ())
         | Some _ | None -> ()));
  Raft_cluster.submit_workload c ~commands:[ 7; 8; 9 ] ~start:8000. ~interval:100.;
  Raft_cluster.run c ~until:25_000.;
  Alcotest.(check bool) "shrank to three" true !shrunk;
  (* Two live members of the 3-node config still commit. *)
  let report = Raft_checker.check c ~expected:[] ~correct:[] in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  match Raft_cluster.current_leader c with
  | Some leader ->
      let committed = Raft_cluster.committed c leader in
      List.iter
        (fun cmd -> Alcotest.(check bool) "committed after crash" true (List.mem cmd committed))
        [ 7; 8; 9 ]
  | None -> Alcotest.fail "no leader after shrink + crash"

let test_swap_under_load () =
  (* Continuous workload across an add+remove swap: safety and
     liveness must hold throughout. *)
  let c = Raft_cluster.create ~n:4 ~seed:9 ~initial_members:[ 0; 1; 2 ] () in
  let engine = Raft_cluster.engine c in
  let cmds = List.init 30 (fun i -> 100 + i) in
  Raft_cluster.submit_workload c ~commands:cmds ~start:1000. ~interval:150.;
  ignore
    (Dessim.Engine.schedule_at engine ~time:2000. (fun () ->
         ignore (Raft_cluster.add_server c 3)));
  let removed = ref (-1) in
  ignore
    (Dessim.Engine.schedule_at engine ~time:3500. (fun () ->
         match Raft_cluster.current_leader c with
         | Some leader ->
             let victim = List.find (fun u -> u <> leader && u <> 3) [ 0; 1; 2 ] in
             if Raft_cluster.remove_server c victim then begin
               removed := victim;
               Raft_cluster.retire_at c ~time:5000. victim
             end
         | None -> ()));
  Raft_cluster.run c ~until:30_000.;
  Alcotest.(check bool) "swap completed" true (!removed >= 0);
  let correct = List.filter (fun u -> u <> !removed) (all 4) in
  let report = Raft_checker.check c ~expected:cmds ~correct in
  Alcotest.(check bool) "safe across swap" true (Raft_checker.safe report);
  Alcotest.(check bool) "live across swap" true report.Raft_checker.live

let test_leadership_transfer () =
  let c = Raft_cluster.create ~n:3 ~seed:10 ~initial_members:[ 0; 1; 2 ] () in
  let engine = Raft_cluster.engine c in
  Raft_cluster.submit_workload c ~commands:[ 1; 2 ] ~start:1000. ~interval:100.;
  let old_leader = ref (-1) and target = ref (-1) and accepted = ref false in
  ignore
    (Dessim.Engine.schedule_at engine ~time:3000. (fun () ->
         match Raft_cluster.current_leader c with
         | Some leader ->
             old_leader := leader;
             target := List.find (fun u -> u <> leader) [ 0; 1; 2 ];
             accepted :=
               Raft_node.transfer_leadership (Raft_cluster.node c leader) !target
         | None -> ()));
  Raft_cluster.run c ~until:10_000.;
  Alcotest.(check bool) "transfer accepted" true !accepted;
  (match Raft_cluster.current_leader c with
  | Some leader -> Alcotest.(check int) "target leads" !target leader
  | None -> Alcotest.fail "no leader after transfer");
  let report = Raft_checker.check c ~expected:[ 1; 2 ] ~correct:(all 3) in
  Alcotest.(check bool) "safe" true (Raft_checker.safe report);
  Alcotest.(check bool) "live" true report.Raft_checker.live

let test_transfer_then_remove_old_leader () =
  (* The rotation the reconfiguration policy needs: hand off, then
     remove the previous leader from the configuration. *)
  let c = Raft_cluster.create ~n:4 ~seed:11 ~initial_members:[ 0; 1; 2; 3 ] () in
  let engine = Raft_cluster.engine c in
  let old_leader = ref (-1) in
  ignore
    (Dessim.Engine.schedule_at engine ~time:2000. (fun () ->
         match Raft_cluster.current_leader c with
         | Some leader ->
             old_leader := leader;
             ignore
               (Raft_node.transfer_leadership (Raft_cluster.node c leader)
                  (List.find (fun u -> u <> leader) [ 0; 1; 2; 3 ]))
         | None -> ()));
  let removed = ref false in
  ignore
    (Dessim.Engine.schedule_at engine ~time:4000. (fun () ->
         removed := Raft_cluster.remove_server c !old_leader));
  Raft_cluster.run c ~until:15_000.;
  Alcotest.(check bool) "old leader removed" true !removed;
  match Raft_cluster.members_view c with
  | Some members ->
      Alcotest.(check bool) "config excludes old leader" false
        (List.mem !old_leader members)
  | None -> Alcotest.fail "no leader"

let test_transfer_validation () =
  let c = Raft_cluster.create ~n:3 ~seed:12 () in
  Raft_cluster.run c ~until:3000.;
  match Raft_cluster.current_leader c with
  | Some leader ->
      Alcotest.(check bool) "self transfer refused" false
        (Raft_node.transfer_leadership (Raft_cluster.node c leader) leader);
      let follower = List.find (fun u -> u <> leader) [ 0; 1; 2 ] in
      Alcotest.(check bool) "follower cannot transfer" false
        (Raft_node.transfer_leadership (Raft_cluster.node c follower) leader)
  | None -> Alcotest.fail "no leader"

let suite =
  [
    Alcotest.test_case "add server catches up" `Quick test_add_server_catches_up;
    Alcotest.test_case "leadership transfer" `Quick test_leadership_transfer;
    Alcotest.test_case "transfer then remove old leader" `Quick
      test_transfer_then_remove_old_leader;
    Alcotest.test_case "transfer validation" `Quick test_transfer_validation;
    Alcotest.test_case "spares never campaign" `Quick test_spares_never_campaign;
    Alcotest.test_case "remove follower" `Quick test_remove_follower;
    Alcotest.test_case "leader cannot remove itself" `Quick test_leader_cannot_remove_itself;
    Alcotest.test_case "single-change rule" `Quick test_single_server_change_rule;
    Alcotest.test_case "static mode rejects config" `Quick test_static_mode_rejects_config;
    Alcotest.test_case "shrunk cluster quorum" `Quick test_shrunk_cluster_quorum;
    Alcotest.test_case "swap under load" `Quick test_swap_under_load;
  ]
