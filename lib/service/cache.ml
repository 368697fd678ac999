(* Classic LRU: hash table to intrusive doubly-linked list nodes, most
   recently used at the head. *)

type node = {
  key : string;
  value : string;
  (* Memo of the last fully rendered reply frame: (id, bytes).
     Replies differ only by request id around an identical payload, so
     an id-stable client (the common case — loadgen and pipelining
     clients key ids by query) gets its whole reply as one slice.
     Reactor-thread only; see the .mli. *)
  mutable reply : (int * string) option;
  mutable prev : node option;
  mutable next : node option;
}

type entry = node

type t = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;  (* MRU *)
  mutable tail : node option;  (* LRU *)
  mutex : Mutex.t;
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
    mutex = Mutex.create ();
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

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  if t.capacity = 0 then begin
    Obs.Metrics.incr t.m_misses;
    locked t (fun () -> t.misses <- t.misses + 1);
    None
  end
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some node ->
            unlink t node;
            push_front t node;
            t.hits <- t.hits + 1;
            Obs.Metrics.incr t.m_hits;
            Some node
        | None ->
            t.misses <- t.misses + 1;
            Obs.Metrics.incr t.m_misses;
            None)

let payload (e : entry) = e.value

let rendered (e : entry) ~id ~render =
  match e.reply with
  | Some (memo_id, bytes) when memo_id = id -> bytes
  | _ ->
      let bytes = render () in
      e.reply <- Some (id, bytes);
      bytes

let add t key value =
  if t.capacity > 0 then
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some node ->
            (* Concurrent miss already admitted this key; values are
               identical by construction, so only refresh recency. *)
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
            let node = { key; value; reply = None; prev = None; next = None } in
            Hashtbl.replace t.table key node;
            push_front t node);
        Obs.Metrics.set t.m_entries (Hashtbl.length t.table))

let count_hit t =
  Obs.Metrics.incr t.m_hits;
  locked t (fun () -> t.hits <- t.hits + 1)

let length t = locked t (fun () -> Hashtbl.length t.table)
let stats t = locked t (fun () -> (t.hits, t.misses, t.evictions))
