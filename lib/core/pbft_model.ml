type params = { n : int; q_eq : int; q_per : int; q_vc : int; q_vc_t : int }

let default n =
  if n < 4 then invalid_arg "Pbft_model.default: PBFT needs n >= 4";
  let f = (n - 1) / 3 in
  { n; q_eq = n - f; q_per = n - f; q_vc = n - f; q_vc_t = f + 1 }

let make ~n ~q_eq ~q_per ~q_vc ~q_vc_t =
  if n <= 0 then invalid_arg "Pbft_model.make: n must be positive";
  let check label q =
    if q < 1 || q > n then
      invalid_arg (Printf.sprintf "Pbft_model.make: %s out of range" label)
  in
  check "q_eq" q_eq;
  check "q_per" q_per;
  check "q_vc" q_vc;
  check "q_vc_t" q_vc_t;
  { n; q_eq; q_per; q_vc; q_vc_t }

let safe_given_byz { n; q_eq; q_per; q_vc; _ } byz =
  byz < (2 * q_eq) - n && byz < q_per + q_vc - n

let live_given { q_eq; q_per; q_vc; q_vc_t; _ } ~byz ~correct =
  byz <= q_vc - q_vc_t
  && correct >= max q_eq (max q_per q_vc)
  && byz < q_vc_t

let protocol params =
  let n = params.n in
  let safe =
    Protocol.count_predicate ~n (fun ~byz ~crashed:_ -> safe_given_byz params byz)
  in
  let live =
    Protocol.count_predicate ~n (fun ~byz ~crashed ->
        live_given params ~byz ~correct:(n - byz - crashed))
  in
  {
    Protocol.name =
      Printf.sprintf "pbft(n=%d,qeq=%d,qper=%d,qvc=%d,qvct=%d)" n params.q_eq
        params.q_per params.q_vc params.q_vc_t;
    n;
    safe;
    live;
  }

let accountable_given_byz params byz =
  let f = params.n - params.q_eq in
  byz <= 2 * f

let safe_or_accountable params =
  let base = protocol params in
  let n = params.n in
  let safe =
    Protocol.count_predicate ~n (fun ~byz ~crashed:_ ->
        safe_given_byz params byz || accountable_given_byz params byz)
  in
  { base with Protocol.name = base.Protocol.name ^ "+forensics"; safe }
