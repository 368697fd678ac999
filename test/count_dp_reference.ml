(* The joint (Byzantine, crashed) count DP as it stood before its walk
   was bounded to the reachable cells: every node updates the whole
   (u + 2) x (u + 2) corner, an empty fault kind included. Kept only as
   the reference the bit-identity property in test_core.ml compares
   [Probcons.Config.joint_count_distribution] against, and the
   baseline of its speed gate. Never link it into lib/. *)

let joint_count_distribution ~crash_probs ~byz_probs =
  let n = Array.length crash_probs in
  if Array.length byz_probs <> n then
    invalid_arg "Config.joint_count_distribution: length mismatch";
  let dist = Array.make_matrix (n + 1) (n + 1) 0. in
  dist.(0).(0) <- 1.;
  for u = 0 to n - 1 do
    let pb = byz_probs.(u) and pc = crash_probs.(u) in
    let pcorrect = 1. -. pb -. pc in
    if pcorrect < -.1e-12 then
      invalid_arg "Config.joint_count_distribution: crash+byz probability exceeds 1";
    let pcorrect = Float.max 0. pcorrect in
    (* Walk counts downward so node u contributes exactly once. *)
    for b = min u (n - 1) + 1 downto 0 do
      for c = min u (n - 1) + 1 downto 0 do
        let from_same = if b <= u && c <= u then dist.(b).(c) *. pcorrect else 0. in
        let from_byz = if b > 0 then dist.(b - 1).(c) *. pb else 0. in
        let from_crash = if c > 0 then dist.(b).(c - 1) *. pc else 0. in
        dist.(b).(c) <- from_same +. from_byz +. from_crash
      done
    done
  done;
  dist

(* [Analysis.run ~strategy:Count_dp] over the table above: cells in row
   order, zero cells skipped, Kahan-compensated, normalized by the mass
   summed. Returns (p_safe, p_live, p_safe_live). *)
let analyze (protocol : Probcons.Protocol.t) ~crash_probs ~byz_probs =
  let safe_count, live_count =
    match (protocol.safe.by_count, protocol.live.by_count) with
    | Some s, Some l -> (s, l)
    | _ -> invalid_arg "Count_dp_reference.analyze: needs count predicates"
  in
  let open Prob.Math_utils in
  let dist = joint_count_distribution ~crash_probs ~byz_probs in
  let n = Array.length crash_probs in
  let p_safe = ref kahan_zero
  and p_live = ref kahan_zero
  and p_both = ref kahan_zero
  and mass = ref kahan_zero in
  for b = 0 to n do
    for c = 0 to n - b do
      let p = dist.(b).(c) in
      if p > 0. then begin
        mass := kahan_add !mass p;
        let safe = safe_count ~byz:b ~crashed:c in
        let live = live_count ~byz:b ~crashed:c in
        if safe then p_safe := kahan_add !p_safe p;
        if live then p_live := kahan_add !p_live p;
        if safe && live then p_both := kahan_add !p_both p
      end
    done
  done;
  let mass = kahan_total !mass in
  let normalize k =
    let p = kahan_total k in
    clamp_prob (if mass > 0. then p /. mass else p)
  in
  (normalize !p_safe, normalize !p_live, normalize !p_both)
