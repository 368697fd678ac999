type t =
  | Threshold of { n : int; k : int }
  | Weighted of { weights : int array; threshold : int }
  | Grid of { rows : int; cols : int }
  | Explicit of { n : int; quorums : Subset.t list }

let majority n =
  if n <= 0 then invalid_arg "Quorum_system.majority: n must be positive";
  Threshold { n; k = (n / 2) + 1 }

let wheel n =
  if n < 3 then invalid_arg "Quorum_system.wheel: need n >= 3";
  let hub = 0 in
  let spokes = List.init (n - 1) (fun i -> i + 1) in
  let pairs = List.map (fun s -> Subset.of_list [ hub; s ]) spokes in
  Explicit { n; quorums = Subset.of_list spokes :: pairs }

let size = function
  | Threshold { n; _ } -> n
  | Weighted { weights; _ } -> Array.length weights
  | Grid { rows; cols } -> rows * cols
  | Explicit { n; _ } -> n

let weight_of weights s =
  let total = ref 0 in
  Array.iteri (fun u w -> if Subset.mem s u then total := !total + w) weights;
  !total

let grid_node ~cols r c = (r * cols) + c

let grid_has_full_row ~rows ~cols s =
  let row_full r =
    let rec go c = c >= cols || (Subset.mem s (grid_node ~cols r c) && go (c + 1)) in
    go 0
  in
  let rec go r = r < rows && (row_full r || go (r + 1)) in
  go 0

let grid_has_full_col ~rows ~cols s =
  let col_full c =
    let rec go r = r >= rows || (Subset.mem s (grid_node ~cols r c) && go (r + 1)) in
    go 0
  in
  let rec go c = c < cols && (col_full c || go (c + 1)) in
  go 0

let contains_quorum t s =
  match t with
  | Threshold { k; _ } -> Subset.cardinal s >= k
  | Weighted { weights; threshold } -> weight_of weights s >= threshold
  | Grid { rows; cols } ->
      grid_has_full_row ~rows ~cols s && grid_has_full_col ~rows ~cols s
  | Explicit { quorums; _ } -> List.exists (fun q -> Subset.subset q s) quorums

let minimal_quorums t =
  match t with
  | Threshold { n; k } ->
      if n > Subset.max_enumeration then
        invalid_arg "Quorum_system.minimal_quorums: universe too large";
      let acc = ref [] in
      Subset.iter_ksubsets n k (fun s -> acc := s :: !acc);
      List.rev !acc
  | Weighted { weights; threshold } ->
      let n = Array.length weights in
      if n > 20 then invalid_arg "Quorum_system.minimal_quorums: universe too large";
      let minimal s =
        weight_of weights s >= threshold
        && List.for_all
             (fun u -> weight_of weights (Subset.remove s u) < threshold)
             (Subset.to_list s)
      in
      Subset.fold_subsets n ~init:[] ~f:(fun acc s -> if minimal s then s :: acc else acc)
      |> List.rev
  | Grid { rows; cols } ->
      let acc = ref [] in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let q = ref Subset.empty in
          for cc = 0 to cols - 1 do
            q := Subset.add !q (grid_node ~cols r cc)
          done;
          for rr = 0 to rows - 1 do
            q := Subset.add !q (grid_node ~cols rr c)
          done;
          acc := !q :: !acc
        done
      done;
      List.rev !acc
  | Explicit { quorums; _ } ->
      (* Drop quorums that strictly contain another quorum. *)
      List.filter
        (fun q ->
          not (List.exists (fun q' -> q' <> q && Subset.subset q' q) quorums))
        quorums

let min_quorum_size t =
  match t with
  | Threshold { k; _ } -> k
  | Grid { rows; cols } -> rows + cols - 1
  | Weighted _ | Explicit _ ->
      List.fold_left
        (fun acc q -> min acc (Subset.cardinal q))
        max_int (minimal_quorums t)

let pairwise_min_overlap qa qb =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc b -> min acc (Subset.cardinal (Subset.inter a b)))
        acc qb)
    max_int qa

let intersects_in a b =
  if size a <> size b then
    invalid_arg "Quorum_system.intersects_in: different universes";
  match (a, b) with
  | Threshold { n; k = k1 }, Threshold { k = k2; _ } -> max 0 (k1 + k2 - n)
  | _ ->
      let qa = minimal_quorums a and qb = minimal_quorums b in
      if qa = [] || qb = [] then 0 else pairwise_min_overlap qa qb

let enumerate_availability ?domains t probs =
  let n = size t in
  if n > Subset.max_enumeration then
    invalid_arg "Quorum_system.availability: universe too large for enumeration";
  let total =
    Parallel.Chunked.sum ?domains ~total:(Subset.full n + 1) (fun ~lo ~hi ->
        let acc = ref Prob.Math_utils.kahan_zero in
        Subset.iter_subsets_range n ~lo ~hi (fun failed ->
            let live = Subset.complement n failed in
            if contains_quorum t live then begin
              let p = ref 1. in
              for u = 0 to n - 1 do
                p :=
                  !p
                  *. (if Subset.mem failed u then probs.(u)
                      else 1. -. probs.(u))
              done;
              acc := Prob.Math_utils.kahan_add !acc !p
            end);
        Prob.Math_utils.kahan_total !acc)
  in
  Prob.Math_utils.clamp_prob total

let availability ?domains ?(exact = false) t probs =
  let n = size t in
  if Array.length probs <> n then
    invalid_arg "Quorum_system.availability: wrong probability vector length";
  match t with
  | Threshold { k; _ } when not exact ->
      (* Live set contains a quorum iff at most n-k nodes failed. *)
      Prob.Poisson_binomial.cdf_le probs (n - k)
  | Threshold _ | Weighted _ | Grid _ | Explicit _ ->
      enumerate_availability ?domains t probs

let uniform_strategy_load t =
  let quorums = minimal_quorums t in
  let m = List.length quorums in
  if m = 0 then 0.
  else begin
    let n = size t in
    let counts = Array.make n 0 in
    List.iter
      (fun q -> List.iter (fun u -> counts.(u) <- counts.(u) + 1) (Subset.to_list q))
      quorums;
    let busiest = Array.fold_left max 0 counts in
    float_of_int busiest /. float_of_int m
  end
