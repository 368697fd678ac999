type entry = { scenario : string; nonce : int; seq : int }

type t = {
  store : (string, entry) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
  mutable applied : int;
  mutable dedup_skips : int;
  mutable missing_payloads : int;
  mutable digest : int;
}

let create () =
  {
    store = Hashtbl.create 64;
    seen = Hashtbl.create 64;
    applied = 0;
    dedup_skips = 0;
    missing_payloads = 0;
    digest = 0;
  }

let mix_digest d id =
  String.fold_left (fun d c -> ((d * 131) + Char.code c) land 0x3FFFFFFF) d id

let apply t ~seq op ~id =
  t.applied <- t.applied + 1;
  match op with
  | Command.Barrier -> `Applied
  | Command.Put_scenario { name; scenario; nonce } ->
      if Hashtbl.mem t.seen id then (
        t.dedup_skips <- t.dedup_skips + 1;
        `Duplicate)
      else (
        Hashtbl.replace t.seen id ();
        t.digest <- mix_digest t.digest id;
        Hashtbl.replace t.store name
          { scenario = Probcons.Scenario.to_string scenario; nonce; seq };
        `Applied)

let note_missing_payload t = t.missing_payloads <- t.missing_payloads + 1
let seen t id = Hashtbl.mem t.seen id
let get t name = Hashtbl.find_opt t.store name

type counts = {
  applied : int;
  store_size : int;
  dedup_skips : int;
  missing_payloads : int;
  digest : int;
}

let counts (t : t) =
  {
    applied = t.applied;
    store_size = Hashtbl.length t.store;
    dedup_skips = t.dedup_skips;
    missing_payloads = t.missing_payloads;
    digest = t.digest;
  }
