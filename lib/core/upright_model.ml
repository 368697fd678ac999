type params = { n : int; u : int; r : int }

let make ~n ~u ~r =
  if r < 0 || r > u then invalid_arg "Upright_model.make: need 0 <= r <= u";
  if n < (2 * u) + r + 1 then invalid_arg "Upright_model.make: need n >= 2u + r + 1";
  { n; u; r }

let max_params ~n ~r =
  let u = (n - r - 1) / 2 in
  if u < r then invalid_arg "Upright_model.max_params: n too small for this r";
  make ~n ~u ~r

let protocol params =
  let { n; u; r } = params in
  let safe = Protocol.count_predicate ~n (fun ~byz ~crashed:_ -> byz <= r) in
  let live =
    Protocol.count_predicate ~n (fun ~byz ~crashed -> byz <= r && byz + crashed <= u)
  in
  { Protocol.name = Printf.sprintf "upright(n=%d,u=%d,r=%d)" n u r; n; safe; live }

let compare_with_classics fleet =
  let n = Faultmodel.Fleet.size fleet in
  let raft = Raft_model.protocol (Raft_model.default n) in
  let entries = [ ("raft", Analysis.run raft fleet) ] in
  let entries =
    if n >= 4 then
      entries @ [ ("pbft", Analysis.run (Pbft_model.protocol (Pbft_model.default n)) fleet) ]
    else entries
  in
  let entries =
    match max_params ~n ~r:1 with
    | params -> entries @ [ ("upright", Analysis.run (protocol params) fleet) ]
    | exception Invalid_argument _ -> entries
  in
  entries
