(* Shard selection: domain ids are small monotonically increasing
   integers; masking them into a fixed shard set keeps the array small
   while spreading concurrent writers. Two domains landing on the same
   shard is a contention issue, never a correctness one — every shard
   cell is an [Atomic.t]. *)
let num_shards = 8

let shard_index () = (Domain.self () :> int) land (num_shards - 1)

(* --- Log-scale buckets --------------------------------------------- *)

(* Quarter powers of two: bucket k (for k in [k_min, k_max]) covers
   (2^((k-1)/4), 2^(k/4)], represented by the geometric midpoint
   2^((k-0.5)/4). Worst-case relative error of any bucket-derived
   statistic is 2^(1/8) - 1 ≈ 9%. Bucket 0 holds zero, negative and
   NaN observations. *)
let k_min = -120
let k_max = 120
let num_buckets = 2 + (k_max - k_min)

let bucket_of_value v =
  if not (v > 0.) then 0 (* zero, negative, or NaN *)
  else if not (Float.is_finite v) then num_buckets - 1
  else begin
    let k = int_of_float (Float.ceil (4. *. Float.log2 v)) in
    let k = if k < k_min then k_min else if k > k_max then k_max else k in
    1 + (k - k_min)
  end

let representative bucket =
  if bucket = 0 then 0.
  else Float.exp2 ((float_of_int (bucket - 1 + k_min) -. 0.5) /. 4.)

(* --- Instruments --------------------------------------------------- *)

type counter = { c_on : bool Atomic.t; c_shards : int Atomic.t array }

type gauge = { g_on : bool Atomic.t; g_shards : int Atomic.t array }

(* [min_int] marks a never-written gauge shard. *)
let gauge_unset = min_int

type histogram = { h_on : bool Atomic.t; h_shards : int Atomic.t array array }

type metric =
  | Reg_counter of counter
  | Reg_gauge of gauge
  | Reg_histogram of histogram

type t = {
  on : bool Atomic.t;
  lock : Mutex.t;
  table : (string * string, metric) Hashtbl.t;
}

let create ?(enabled = false) () =
  { on = Atomic.make enabled; lock = Mutex.create (); table = Hashtbl.create 64 }

(* The process-global registry every library-level metric lives in. *)
let default = create ()

let set_enabled flag = Atomic.set default.on flag
let enabled () = Atomic.get default.on

let atomic_array n = Array.init n (fun _ -> Atomic.make 0)

let with_lock registry f =
  Mutex.lock registry.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry.lock) f

let kind_name = function
  | Reg_counter _ -> "counter"
  | Reg_gauge _ -> "gauge"
  | Reg_histogram _ -> "histogram"

let register registry ~family ~name make =
  if family = "" || name = "" then
    invalid_arg "Metrics: family and name must be non-empty";
  with_lock registry (fun () ->
      match Hashtbl.find_opt registry.table (family, name) with
      | Some existing -> existing
      | None ->
          let metric = make () in
          Hashtbl.add registry.table (family, name) metric;
          metric)

let counter ?(registry = default) ~family name =
  match
    register registry ~family ~name (fun () ->
        Reg_counter { c_on = registry.on; c_shards = atomic_array num_shards })
  with
  | Reg_counter c -> c
  | other ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %s.%s already registered as a %s" family
           name (kind_name other))

let gauge ?(registry = default) ~family name =
  match
    register registry ~family ~name (fun () ->
        Reg_gauge
          {
            g_on = registry.on;
            g_shards = Array.init num_shards (fun _ -> Atomic.make gauge_unset);
          })
  with
  | Reg_gauge g -> g
  | other ->
      invalid_arg
        (Printf.sprintf "Metrics.gauge: %s.%s already registered as a %s" family name
           (kind_name other))

let histogram ?(registry = default) ~family name =
  match
    register registry ~family ~name (fun () ->
        Reg_histogram
          {
            h_on = registry.on;
            h_shards = Array.init num_shards (fun _ -> atomic_array num_buckets);
          })
  with
  | Reg_histogram h -> h
  | other ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %s.%s already registered as a %s" family
           name (kind_name other))

let incr c =
  if Atomic.get c.c_on then
    ignore (Atomic.fetch_and_add c.c_shards.(shard_index ()) 1)

let add c k =
  if Atomic.get c.c_on then
    ignore (Atomic.fetch_and_add c.c_shards.(shard_index ()) k)

let set g v =
  if Atomic.get g.g_on then
    Atomic.set g.g_shards.(shard_index ()) (if v = gauge_unset then v + 1 else v)

let observe h v =
  if Atomic.get h.h_on then
    ignore (Atomic.fetch_and_add h.h_shards.(shard_index ()).(bucket_of_value v) 1)

let live h = Atomic.get h.h_on

let reset () =
  with_lock default (fun () ->
      Hashtbl.iter
        (fun _ metric ->
          match metric with
          | Reg_counter c -> Array.iter (fun a -> Atomic.set a 0) c.c_shards
          | Reg_gauge g -> Array.iter (fun a -> Atomic.set a gauge_unset) g.g_shards
          | Reg_histogram h ->
              Array.iter (Array.iter (fun a -> Atomic.set a 0)) h.h_shards)
        default.table)

(* --- Snapshots ----------------------------------------------------- *)

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type value = Counter of int | Gauge of int | Histogram of hist_summary

type sample = { family : string; name : string; value : value }

type snapshot = sample list

let counter_total c =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_shards

let gauge_value g =
  Array.fold_left
    (fun acc a ->
      let v = Atomic.get a in
      if v = gauge_unset then acc else max acc v)
    0 g.g_shards

let hist_summary h =
  (* Merge shards into one bucket array; everything below derives from
     the merged view. *)
  let merged = Array.make num_buckets 0 in
  Array.iter
    (fun shard ->
      Array.iteri (fun b a -> merged.(b) <- merged.(b) + Atomic.get a) shard)
    h.h_shards;
  let count = Array.fold_left ( + ) 0 merged in
  if count = 0 then
    { count = 0; sum = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p99 = 0. }
  else begin
    let sum = ref 0. and min_b = ref (-1) and max_b = ref 0 in
    Array.iteri
      (fun b n ->
        if n > 0 then begin
          sum := !sum +. (float_of_int n *. representative b);
          if !min_b < 0 then min_b := b;
          max_b := b
        end)
      merged;
    let percentile q =
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
      let cum = ref 0 and b = ref 0 and result = ref 0. in
      let found = ref false in
      while not !found do
        cum := !cum + merged.(!b);
        if !cum >= rank then begin
          result := representative !b;
          found := true
        end
        else b := !b + 1
      done;
      !result
    in
    {
      count;
      sum = !sum;
      min = representative !min_b;
      max = representative !max_b;
      p50 = percentile 0.50;
      p90 = percentile 0.90;
      p99 = percentile 0.99;
    }
  end

let snapshot ?(registry = default) () =
  let entries =
    with_lock registry (fun () ->
        Hashtbl.fold (fun key metric acc -> (key, metric) :: acc) registry.table [])
  in
  entries
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun ((family, name), metric) ->
         let value =
           match metric with
           | Reg_counter c -> Counter (counter_total c)
           | Reg_gauge g -> Gauge (gauge_value g)
           | Reg_histogram h -> Histogram (hist_summary h)
         in
         { family; name; value })

let find snapshot ~family ~name =
  List.find_map
    (fun s -> if s.family = family && s.name = name then Some s.value else None)
    snapshot

(* --- JSON ---------------------------------------------------------- *)

let sample_to_json { family; name; value } =
  let base = [ ("family", Json.String family); ("name", Json.String name) ] in
  Json.Obj
    (match value with
    | Counter v -> base @ [ ("kind", Json.String "counter"); ("value", Json.Int v) ]
    | Gauge v -> base @ [ ("kind", Json.String "gauge"); ("value", Json.Int v) ]
    | Histogram h ->
        base
        @ [
            ("kind", Json.String "histogram");
            ("count", Json.Int h.count);
            ("sum", Json.number h.sum);
            ("min", Json.number h.min);
            ("max", Json.number h.max);
            ("p50", Json.number h.p50);
            ("p90", Json.number h.p90);
            ("p99", Json.number h.p99);
          ])

let sample_of_json json =
  let str key = Option.bind (Json.member key json) Json.to_string_opt in
  let int key = Option.bind (Json.member key json) Json.to_int in
  let num key = Option.bind (Json.member key json) Json.to_float in
  match (str "family", str "name", str "kind") with
  | Some family, Some name, Some kind -> (
      let make value = Ok { family; name; value } in
      match kind with
      | "counter" -> (
          match int "value" with
          | Some v -> make (Counter v)
          | None -> Error "counter sample without integer value")
      | "gauge" -> (
          match int "value" with
          | Some v -> make (Gauge v)
          | None -> Error "gauge sample without integer value")
      | "histogram" -> (
          match
            (int "count", num "sum", num "min", num "max", num "p50", num "p90",
             num "p99")
          with
          | Some count, Some sum, Some min, Some max, Some p50, Some p90, Some p99
            -> make (Histogram { count; sum; min; max; p50; p90; p99 })
          | _ -> Error "histogram sample with missing summary fields")
      | other -> Error (Printf.sprintf "unknown sample kind %S" other))
  | _ -> Error "sample without family/name/kind"

let to_jsonl snapshot =
  String.concat ""
    (List.map (fun s -> Json.to_string (sample_to_json s) ^ "\n") snapshot)

let of_jsonl text =
  let lines =
    List.filter
      (fun line -> String.trim line <> "")
      (String.split_on_char '\n' text)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Json.of_string line with
        | Error _ as e -> e
        | Ok json -> (
            match sample_of_json json with
            | Ok sample -> go (sample :: acc) rest
            | Error _ as e -> e))
  in
  go [] lines

let write_jsonl ~path snapshot =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl snapshot))
