type matrix = float array array

let make rows cols = Array.make_matrix rows cols 0.

let copy m = Array.map Array.copy m

let transpose m =
  let rows = Array.length m in
  if rows = 0 then [||]
  else begin
    let cols = Array.length m.(0) in
    Array.init cols (fun j -> Array.init rows (fun i -> m.(i).(j)))
  end

let solve a b =
  let n = Array.length b in
  if Array.length a <> n then invalid_arg "Linalg.solve: dimension mismatch";
  let m = copy a and x = Array.copy b in
  for col = 0 to n - 1 do
    (* Partial pivoting. *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs m.(row).(col) > Float.abs m.(!pivot).(col) then pivot := row
    done;
    if Float.abs m.(!pivot).(col) < 1e-300 then failwith "Linalg.solve: singular matrix";
    if !pivot <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- tmp;
      let tb = x.(col) in
      x.(col) <- x.(!pivot);
      x.(!pivot) <- tb
    end;
    for row = col + 1 to n - 1 do
      let factor = m.(row).(col) /. m.(col).(col) in
      if factor <> 0. then begin
        for j = col to n - 1 do
          m.(row).(j) <- m.(row).(j) -. (factor *. m.(col).(j))
        done;
        x.(row) <- x.(row) -. (factor *. x.(col))
      end
    done
  done;
  for row = n - 1 downto 0 do
    let acc = ref x.(row) in
    for j = row + 1 to n - 1 do
      acc := !acc -. (m.(row).(j) *. x.(j))
    done;
    x.(row) <- !acc /. m.(row).(row)
  done;
  x

let solve_normalized_nullspace q =
  let n = Array.length q in
  (* pi q = 0  <=>  q^T pi^T = 0; overwrite the last equation with
     sum(pi) = 1 to pin the scale. *)
  let a = transpose q in
  let b = Array.make n 0. in
  for j = 0 to n - 1 do
    a.(n - 1).(j) <- 1.
  done;
  b.(n - 1) <- 1.;
  let pi = solve a b in
  Array.map (fun p -> Float.max 0. p) pi
