(* Classic LRU: hash table to intrusive doubly-linked list nodes, most
   recently used at the head. One thread owns it (the server's reactor),
   so nothing here locks. *)

type node = {
  key : string;
  value : string;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;  (* MRU *)
  mutable tail : node option;  (* LRU *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
  m_evictions : Obs.Metrics.counter;
  m_entries : Obs.Metrics.gauge;
}

let create ?registry ~capacity () =
  {
    capacity = max 0 capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    m_hits = Obs.Metrics.counter ?registry ~family:"service" "cache_hits";
    m_misses = Obs.Metrics.counter ?registry ~family:"service" "cache_misses";
    m_evictions = Obs.Metrics.counter ?registry ~family:"service" "cache_evictions";
    m_entries = Obs.Metrics.gauge ?registry ~family:"service" "cache_entries";
  }

let capacity t = t.capacity

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let count_hit t =
  Obs.Metrics.incr t.m_hits;
  t.hits <- t.hits + 1

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      unlink t node;
      push_front t node;
      count_hit t;
      Some node.value
  | None ->
      Obs.Metrics.incr t.m_misses;
      t.misses <- t.misses + 1;
      None

let add t key value =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.table key with
    | Some node ->
        (* Two misses on one key both computed it; values are identical
           by construction, so only refresh recency. *)
        unlink t node;
        push_front t node
    | None ->
        if Hashtbl.length t.table >= t.capacity then begin
          match t.tail with
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.table lru.key;
              t.evictions <- t.evictions + 1;
              Obs.Metrics.incr t.m_evictions
          | None -> ()
        end;
        let node = { key; value; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node);
    Obs.Metrics.set t.m_entries (Hashtbl.length t.table)
  end

let length t = Hashtbl.length t.table
let stats t = (t.hits, t.misses, t.evictions)
