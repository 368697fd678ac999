type t = int

let empty = 0
let full n = (1 lsl n) - 1
let mem s u = s land (1 lsl u) <> 0
let add s u = s lor (1 lsl u)
let remove s u = s land lnot (1 lsl u)

let cardinal s =
  (* Kernighan popcount; subsets here are at most 62 bits. *)
  let rec go s acc = if s = 0 then acc else go (s land (s - 1)) (acc + 1) in
  go s 0

let inter = ( land )
let subset a b = a land lnot b = 0
let of_list l = List.fold_left add empty l

let to_list s =
  let rec go u acc = if 1 lsl u > s then List.rev acc else go (u + 1) (if mem s u then u :: acc else acc) in
  go 0 []

let complement n s = full n land lnot s

let max_enumeration = 24

let iter_subsets n f =
  if n < 0 || n > max_enumeration then
    invalid_arg "Subset.iter_subsets: universe too large for enumeration";
  for s = 0 to full n do
    f s
  done

let iter_subsets_range n ~lo ~hi f =
  if n < 0 || n > max_enumeration then
    invalid_arg "Subset.iter_subsets_range: universe too large for enumeration";
  if lo < 0 || hi > full n + 1 || lo > hi then
    invalid_arg "Subset.iter_subsets_range: range outside [0, 2^n]";
  for s = lo to hi - 1 do
    f s
  done

let iter_ksubsets n k f =
  if k < 0 || k > n then ()
  else if k = 0 then f 0
  else begin
    (* Gosper's hack: next subset with the same popcount. *)
    let limit = 1 lsl n in
    let s = ref (full k) in
    while !s < limit do
      f !s;
      let c = !s land - !s in
      let r = !s + c in
      s := (((r lxor !s) lsr 2) / c) lor r
    done
  end

let fold_subsets n ~init ~f =
  let acc = ref init in
  iter_subsets n (fun s -> acc := f !acc s);
  !acc
