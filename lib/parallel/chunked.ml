let default_chunks = 64

let ranges ~total () =
  if total <= 0 then [||]
  else begin
    let k = max 1 (min default_chunks total) in
    let base = total / k and extra = total mod k in
    Array.init k (fun i ->
        let lo = (i * base) + min i extra in
        let hi = lo + base + if i < extra then 1 else 0 in
        (lo, hi))
  end

let map_ranges ?domains ~total f =
  let rs = ranges ~total () in
  Pool.map ?domains (Array.length rs) (fun i ->
      let lo, hi = rs.(i) in
      f ~chunk:i ~lo ~hi)

let reduce_kahan partials extract =
  let acc = ref Prob.Math_utils.kahan_zero in
  Array.iter (fun p -> acc := Prob.Math_utils.kahan_add !acc (extract p)) partials;
  Prob.Math_utils.kahan_total !acc

let sum ?domains ~total f =
  let partials = map_ranges ?domains ~total (fun ~chunk:_ ~lo ~hi -> f ~lo ~hi) in
  reduce_kahan partials Fun.id

let sum3 ?domains ~total f =
  let partials = map_ranges ?domains ~total f in
  ( reduce_kahan partials (fun (a, _, _) -> a),
    reduce_kahan partials (fun (_, b, _) -> b),
    reduce_kahan partials (fun (_, _, c) -> c) )

let count3 ?domains ~total f =
  let partials = map_ranges ?domains ~total f in
  Array.fold_left
    (fun (a, b, c) (da, db, dc) -> (a + da, b + db, c + dc))
    (0, 0, 0) partials
