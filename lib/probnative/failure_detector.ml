type t = {
  intervals : float Queue.t;
  mutable last_heartbeat : float option;
  mutable sum : float;
  mutable sum_sq : float;
}

let window = 128

let create () =
  { intervals = Queue.create (); last_heartbeat = None; sum = 0.; sum_sq = 0. }

let heartbeat t ~now =
  (match t.last_heartbeat with
  | Some last ->
      if now < last then invalid_arg "Failure_detector.heartbeat: time went backwards";
      let interval = now -. last in
      Queue.push interval t.intervals;
      t.sum <- t.sum +. interval;
      t.sum_sq <- t.sum_sq +. (interval *. interval);
      if Queue.length t.intervals > window then begin
        let evicted = Queue.pop t.intervals in
        t.sum <- t.sum -. evicted;
        t.sum_sq <- t.sum_sq -. (evicted *. evicted)
      end
  | None -> ());
  t.last_heartbeat <- Some now

let mean_interval t =
  let n = Queue.length t.intervals in
  if n = 0 then None else Some (t.sum /. float_of_int n)

let stddev t =
  let n = float_of_int (Queue.length t.intervals) in
  if n < 1. then None
  else begin
    let mean = t.sum /. n in
    let variance = Float.max 0. ((t.sum_sq /. n) -. (mean *. mean)) in
    (* Floor the deviation at a tenth of the mean so a perfectly regular
       simulated heartbeat stream does not make phi a step function. *)
    Some (Float.max (sqrt variance) (0.1 *. mean))
  end

let phi t ~now =
  match (t.last_heartbeat, mean_interval t, stddev t) with
  | Some last, Some mean, Some sd when Queue.length t.intervals >= 1 ->
      let elapsed = now -. last in
      if elapsed <= mean then 0.
      else begin
        (* Exponential approximation of the normal tail, following the
           phi-accrual construction: P ~ exp (-(elapsed - mean) / sd')
           with sd' scaled so phi grows one unit per ln 10 * sd'. *)
        let y = (elapsed -. mean) /. sd in
        y /. Float.log 10.
      end
  | _ -> 0.

let suspect ?(threshold = 8.) t ~now = phi t ~now > threshold
