let m_events = Obs.Metrics.counter ~family:"engine" "events_executed"
let m_queue_depth = Obs.Metrics.gauge ~family:"engine" "queue_depth"

type event = { callback : unit -> unit; mutable cancelled : bool }

type cancel = event

type t = {
  mutable clock : float;
  queue : event Event_queue.t;
  rng : Prob.Rng.t;
  mutable executed : int;
  mutable stopped : bool;
}

let create ?(seed = 1) () =
  { clock = 0.; queue = Event_queue.create (); rng = Prob.Rng.create seed;
    executed = 0; stopped = false }

let now t = t.clock
let rng t = t.rng

let schedule_at t ~time callback =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let event = { callback; cancelled = false } in
  Event_queue.push t.queue ~time event;
  event

let schedule t ~delay callback =
  if delay < 0. || Float.is_nan delay then
    invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) callback

let cancel event = event.cancelled <- true

let backstop = 10_000_000

let run ?(until = infinity) ?(max_events = backstop) t =
  t.stopped <- false;
  let rec loop () =
    if (not t.stopped) && t.executed < max_events then begin
      match Event_queue.peek_time t.queue with
      | None -> ()
      | Some time when time > until -> ()
      | Some _ -> (
          match Event_queue.pop t.queue with
          | None -> ()
          | Some (time, event) ->
              t.clock <- Float.max t.clock time;
              if not event.cancelled then begin
                t.executed <- t.executed + 1;
                Obs.Metrics.incr m_events;
                Obs.Metrics.set m_queue_depth (Event_queue.size t.queue);
                event.callback ()
              end;
              loop ())
    end
  in
  loop ()

(* [run]'s backstop counts events over the engine's life; a caller that
   advances one engine for as long as its process lives gets the same
   budget afresh on every call. *)
let advance t ~until =
  run ~until ~max_events:(t.executed + backstop) t;
  match Event_queue.peek_time t.queue with
  | Some time when time <= until -> () (* stopped early; events remain due *)
  | _ -> t.clock <- Float.max t.clock until

let rec next_event_time t =
  match Event_queue.peek t.queue with
  | Some (_, event) when event.cancelled ->
      ignore (Event_queue.pop t.queue);
      next_event_time t
  | Some (time, _) -> Some time
  | None -> None

let events_executed t = t.executed

let stop t = t.stopped <- true
