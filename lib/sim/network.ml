let m_sent = Obs.Metrics.counter ~family:"engine" "messages_sent"
let m_dropped = Obs.Metrics.counter ~family:"engine" "messages_dropped"
let m_delivered = Obs.Metrics.counter ~family:"engine" "messages_delivered"
let m_latency = Obs.Metrics.histogram ~family:"engine" "message_latency"

type latency =
  | Fixed of float
  | Uniform of { lo : float; hi : float }
  | Lognormal_ish of { base : float; mean_extra : float }

type 'msg t = {
  engine : Engine.t;
  n : int;
  latency : latency;
  drop_probability : float;
  rng : Prob.Rng.t;
  handlers : (src:int -> 'msg -> unit) option array;
  down : bool array;
  mutable cut_pairs : (int * int) list;  (** Directed blocked pairs. *)
  mutable sent : int;
  mutable delivered : int;
}

let create ~engine ~n ?(latency = Uniform { lo = 1.; hi = 10. })
    ?(drop_probability = 0.) () =
  if n <= 0 then invalid_arg "Network.create: n must be positive";
  if drop_probability < 0. || drop_probability >= 1. then
    invalid_arg "Network.create: drop probability must be in [0, 1)";
  {
    engine;
    n;
    latency;
    drop_probability;
    rng = Prob.Rng.split (Engine.rng engine);
    handlers = Array.make n None;
    down = Array.make n false;
    cut_pairs = [];
    sent = 0;
    delivered = 0;
  }

let check_node t i =
  if i < 0 || i >= t.n then invalid_arg "Network: node id out of range"

let set_handler t i handler =
  check_node t i;
  t.handlers.(i) <- Some handler

let sample_latency t =
  match t.latency with
  | Fixed d -> d
  | Uniform { lo; hi } -> lo +. (Prob.Rng.float t.rng *. (hi -. lo))
  | Lognormal_ish { base; mean_extra } ->
      base +. Prob.Rng.exponential t.rng (1. /. mean_extra)

let blocked t ~src ~dst = List.mem (src, dst) t.cut_pairs

let send t ~src ~dst msg =
  check_node t src;
  check_node t dst;
  t.sent <- t.sent + 1;
  Obs.Metrics.incr m_sent;
  (* The short-circuit mirrors the pre-instrumentation code exactly: a
     down sender consumes no rng draw, so traces stay bit-identical for
     a fixed seed whether or not metrics are enabled. *)
  if t.down.(src) || Prob.Rng.bool t.rng t.drop_probability then
    Obs.Metrics.incr m_dropped
  else begin
    let delay = sample_latency t in
    Obs.Metrics.observe m_latency delay;
    ignore
      (Engine.schedule t.engine ~delay (fun () ->
           if (not t.down.(dst)) && not (blocked t ~src ~dst) then begin
             match t.handlers.(dst) with
             | Some handler ->
                 t.delivered <- t.delivered + 1;
                 Obs.Metrics.incr m_delivered;
                 handler ~src msg
             | None -> ()
           end))
  end

let broadcast t ~src msg =
  for dst = 0 to t.n - 1 do
    if dst <> src then send t ~src ~dst msg
  done

let set_down t i down =
  check_node t i;
  t.down.(i) <- down

let partition t group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_node t a;
          check_node t b;
          t.cut_pairs <- (a, b) :: (b, a) :: t.cut_pairs)
        group_b)
    group_a

let heal t = t.cut_pairs <- []

let messages_sent t = t.sent
let messages_delivered t = t.delivered
