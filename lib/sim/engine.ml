let m_events = Obs.Metrics.counter ~family:"engine" "events_executed"
let m_queue_depth = Obs.Metrics.gauge ~family:"engine" "queue_depth"

type event = { callback : unit -> unit; mutable cancelled : bool }

type cancel = event

type t = {
  mutable clock : float;
  queue : event Event_queue.t;
  rng : Prob.Rng.t;
  mutable executed : int;
}

let create ?(seed = 1) () =
  { clock = 0.; queue = Event_queue.create (); rng = Prob.Rng.create seed;
    executed = 0 }

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

let run ?(until = infinity) ?(max_events = 10_000_000) t =
  let rec loop () =
    if t.executed < max_events then begin
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
