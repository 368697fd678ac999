(* Cross-cutting property tests: invariants that must hold across the
   whole analysis stack, on randomized instances. *)

open Probcons

let random_fleet rng ~n ~max_p ~byz =
  Faultmodel.Fleet.of_nodes
    (List.init n (fun id ->
         Faultmodel.Node.make ~id
           ~byz_fraction:(if byz then Prob.Rng.float rng else 0.)
           (Faultmodel.Fault_curve.constant (Prob.Rng.float rng *. max_p))))

let prop_conjunction_bounded =
  QCheck.Test.make ~count:40 ~name:"P(safe&live) <= min(P(safe), P(live))"
    QCheck.(pair (int_range 3 9) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.3 ~byz:true in
      let proto =
        if n >= 4 && Prob.Rng.bool rng 0.5 then Pbft_model.protocol (Pbft_model.default n)
        else Raft_model.protocol (Raft_model.default n)
      in
      let r = Analysis.run proto fleet in
      r.Analysis.p_safe_live <= r.Analysis.p_safe +. 1e-12
      && r.Analysis.p_safe_live <= r.Analysis.p_live +. 1e-12)

let prop_raft_reliability_monotone_in_n =
  QCheck.Test.make ~count:40 ~name:"raft S&L grows with odd cluster size"
    QCheck.(pair (int_range 1 5) (float_bound_inclusive 0.3))
    (fun (half, p) ->
      QCheck.assume (p < 0.5);
      let n = (2 * half) + 1 in
      Raft_model.safe_and_live_uniform ~n:(n + 2) ~p
      >= Raft_model.safe_and_live_uniform ~n ~p -. 1e-12)

let prop_engines_agree_on_random_pbft_quorums =
  QCheck.Test.make ~count:25 ~name:"count DP = enumeration on random PBFT quorums"
    QCheck.(pair (int_range 4 7) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let q () = 1 + Prob.Rng.int rng n in
      let q_vc = q () in
      let params =
        Pbft_model.make ~n ~q_eq:(q ()) ~q_per:(q ()) ~q_vc
          ~q_vc_t:(1 + Prob.Rng.int rng q_vc)
      in
      let fleet = random_fleet rng ~n ~max_p:0.4 ~byz:true in
      let proto = Pbft_model.protocol params in
      let dp = Analysis.run ~strategy:Analysis.Count_dp proto fleet in
      let enum = Analysis.run ~strategy:Analysis.Enumeration proto fleet in
      Float.abs (dp.Analysis.p_safe -. enum.Analysis.p_safe) < 1e-9
      && Float.abs (dp.Analysis.p_live -. enum.Analysis.p_live) < 1e-9
      && Float.abs (dp.Analysis.p_safe_live -. enum.Analysis.p_safe_live) < 1e-9)

let prop_durability_ordering_random_fleets =
  QCheck.Test.make ~count:40 ~name:"durability: worst <= random <= best"
    QCheck.(pair (int_range 4 10) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.5 ~byz:false in
      let size = 1 + Prob.Rng.int rng (n - 1) in
      let d placement = Durability.durability fleet placement ~size in
      d Durability.Worst_case <= d Durability.Random +. 1e-12
      && d Durability.Random <= d Durability.Best_case +. 1e-12)

let prop_formation_dependence_helps =
  QCheck.Test.make ~count:40 ~name:"shared-live-set intersection >= independent"
    QCheck.(triple (int_range 6 25) (float_bound_inclusive 0.4) (int_range 0 1000))
    (fun (n, p, seed) ->
      let rng = Prob.Rng.create seed in
      let k1 = 1 + Prob.Rng.int rng (n / 2) in
      let k2 = 1 + Prob.Rng.int rng (n / 2) in
      Quorum.Formation.intersection_given_live ~n ~p ~k1 ~k2
      >= Quorum.Formation.intersection_independent ~n ~k1 ~k2 -. 1e-12)

let prop_equivalence_minimal =
  QCheck.Test.make ~count:30 ~name:"min_raft_cluster is minimal"
    QCheck.(pair (float_bound_inclusive 0.2) (int_range 1 6))
    (fun (p, nines) ->
      QCheck.assume (p > 0.001);
      let target = Prob.Nines.to_prob (float_of_int nines) in
      match Equivalence.min_raft_cluster ~target ~p () with
      | None -> true
      | Some e ->
          e.Equivalence.p_safe_live >= target
          && (e.Equivalence.n <= 2
             || Equivalence.raft_reliability ~n:(e.Equivalence.n - 2) ~p < target))

let prop_upright_safety_between_raft_and_pbft =
  QCheck.Test.make ~count:30 ~name:"safety: raft <= upright(r=1) <= pbft"
    QCheck.(pair (int_range 4 9) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.2 ~byz:true in
      let results = Upright_model.compare_with_classics fleet in
      let get name = (List.assoc name results).Analysis.p_safe in
      get "raft" <= get "upright" +. 1e-12 && get "upright" <= get "pbft" +. 1e-12)

let prop_uniform_stake_equals_count_threshold =
  QCheck.Test.make ~count:30 ~name:"uniform stake model = count threshold"
    QCheck.(pair (int_range 3 10) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.3 ~byz:true in
      let stake = Stake_model.protocol (Stake_model.make (Array.make n 1.)) in
      (* The equivalent count model: safe iff byz/n < 1/3, live iff
         correct/n >= 2/3. *)
      let count =
        {
          Protocol.name = "count-equivalent";
          n;
          safe =
            Protocol.count_predicate ~n (fun ~byz ~crashed:_ ->
                3 * byz < n);
          live =
            Protocol.count_predicate ~n (fun ~byz ~crashed ->
                3 * (n - byz - crashed) >= 2 * n);
        }
      in
      let a = Analysis.run stake fleet in
      let b = Analysis.run count fleet in
      Float.abs (a.Analysis.p_safe -. b.Analysis.p_safe) < 1e-9
      && Float.abs (a.Analysis.p_live -. b.Analysis.p_live) < 1e-9)

(* --- Parallel determinism --------------------------------------------

   The chunked engines must be *bit-identical* across domain counts:
   exact engines because chunk boundaries and reduction order are fixed,
   Monte Carlo because chunk RNG streams depend only on (seed, chunk).
   Whole results are compared, so the engine label and the confidence
   intervals must not record the domain count either. *)

let identical_results (a : Analysis.result) b = compare a b = 0

let random_identity_protocol rng ~n =
  (* Stake weights make the predicates node-identity-dependent, which
     forces the enumeration engine (binary or ternary depending on the
     fleet's fault mix). *)
  Stake_model.protocol
    (Stake_model.make (Array.init n (fun _ -> 1. +. Prob.Rng.float rng)))

let prop_enumeration_bit_stable_across_domains =
  QCheck.Test.make ~count:20 ~name:"enumeration: domains:1 = domains:4 bit-identical"
    QCheck.(triple (int_range 3 8) bool (int_range 0 100_000))
    (fun (n, ternary, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet =
        (* byz:true with full byz_fraction mix -> ternary path; byz:false
           -> pure-crash binary path. *)
        random_fleet rng ~n ~max_p:0.3 ~byz:ternary
      in
      let proto = random_identity_protocol rng ~n in
      let seq = Analysis.run ~strategy:Analysis.Enumeration ~domains:1 proto fleet in
      let par = Analysis.run ~strategy:Analysis.Enumeration ~domains:4 proto fleet in
      identical_results seq par)

let prop_count_dp_bit_stable_across_domains =
  QCheck.Test.make ~count:15 ~name:"count-dp: domains:1 = domains:4 bit-identical"
    QCheck.(pair (int_range 3 9) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.3 ~byz:true in
      let proto =
        if n >= 4 && Prob.Rng.bool rng 0.5 then Pbft_model.protocol (Pbft_model.default n)
        else Raft_model.protocol (Raft_model.default n)
      in
      let seq = Analysis.run ~strategy:Analysis.Count_dp ~domains:1 proto fleet in
      let par = Analysis.run ~strategy:Analysis.Count_dp ~domains:4 proto fleet in
      identical_results seq par)

let prop_monte_carlo_seed_reproducible_across_domains =
  QCheck.Test.make ~count:10
    ~name:"monte carlo: same seed, domains:1 = domains:4 identical"
    QCheck.(triple (int_range 3 10) (int_range 0 100_000) (int_range 1 5))
    (fun (n, seed, k) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.3 ~byz:true in
      let proto = random_identity_protocol rng ~n in
      let trials = k * 1000 in
      let seq =
        Analysis.run ~strategy:(Analysis.Monte_carlo trials) ~seed ~domains:1 proto fleet
      in
      let par =
        Analysis.run ~strategy:(Analysis.Monte_carlo trials) ~seed ~domains:4 proto fleet
      in
      identical_results seq par)

let prop_iter_subsets_range_partitions_space =
  QCheck.Test.make ~count:50 ~name:"iter_subsets_range partition covers the space"
    QCheck.(pair (int_range 1 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let total = (1 lsl n) in
      (* Random partition of [0, 2^n): 1-4 ordered cut points. *)
      let cuts =
        List.init (1 + Prob.Rng.int rng 4) (fun _ -> Prob.Rng.int rng (total + 1))
        |> List.sort_uniq compare
      in
      let bounds = (0 :: cuts) @ [ total ] in
      let from_ranges = ref [] in
      let rec walk = function
        | lo :: (hi :: _ as rest) ->
            Quorum.Subset.iter_subsets_range n ~lo ~hi (fun s ->
                from_ranges := s :: !from_ranges);
            walk rest
        | _ -> ()
      in
      walk bounds;
      let whole = ref [] in
      Quorum.Subset.iter_subsets n (fun s -> whole := s :: !whole);
      List.rev !from_ranges = List.rev !whole)

let prop_iter_ternary_range_partitions_space =
  QCheck.Test.make ~count:30 ~name:"iter_ternary_range partition covers the space"
    QCheck.(pair (int_range 1 6) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let total = Config.ternary_cardinality ~n in
      let mid = Prob.Rng.int rng (total + 1) in
      let collect f =
        let acc = ref [] in
        f (fun c -> acc := Array.to_list c :: !acc);
        List.rev !acc
      in
      let sliced =
        collect (fun f -> Config.iter_ternary_range ~n ~lo:0 ~hi:mid f)
        @ collect (fun f -> Config.iter_ternary_range ~n ~lo:mid ~hi:total f)
      in
      let whole = collect (fun f -> Config.iter_ternary ~n f) in
      sliced = whole)

let prop_nines_formatting_sane =
  QCheck.Test.make ~count:100 ~name:"percent_string stays within [0%,100%]"
    QCheck.(float_bound_inclusive 1.)
    (fun p ->
      let s = Prob.Nines.percent_string p in
      String.length s > 0
      && s.[String.length s - 1] = '%'
      &&
      match Prob.Nines.parse_percent s with
      | Some q -> q >= 0. && q <= 1.
      | None -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_conjunction_bounded;
    QCheck_alcotest.to_alcotest prop_raft_reliability_monotone_in_n;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_random_pbft_quorums;
    QCheck_alcotest.to_alcotest prop_durability_ordering_random_fleets;
    QCheck_alcotest.to_alcotest prop_formation_dependence_helps;
    QCheck_alcotest.to_alcotest prop_equivalence_minimal;
    QCheck_alcotest.to_alcotest prop_upright_safety_between_raft_and_pbft;
    QCheck_alcotest.to_alcotest prop_uniform_stake_equals_count_threshold;
    QCheck_alcotest.to_alcotest prop_enumeration_bit_stable_across_domains;
    QCheck_alcotest.to_alcotest prop_count_dp_bit_stable_across_domains;
    QCheck_alcotest.to_alcotest prop_monte_carlo_seed_reproducible_across_domains;
    QCheck_alcotest.to_alcotest prop_iter_subsets_range_partitions_space;
    QCheck_alcotest.to_alcotest prop_iter_ternary_range_partitions_space;
    QCheck_alcotest.to_alcotest prop_nines_formatting_sane;
  ]
