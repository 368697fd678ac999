(* --- Self-pipe ------------------------------------------------------------- *)

let pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

(* A full pipe already holds a pending wake-up. *)
let wake fd =
  try ignore (Unix.write_substring fd "w" 0 1) with Unix.Unix_error _ -> ()

let drain fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* --- Sockets --------------------------------------------------------------- *)

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  fd

let accept listener =
  match Unix.accept ~cloexec:true listener with
  | exception Unix.Unix_error _ -> None
  | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Some fd

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- Reading frames -------------------------------------------------------- *)

let read_frames fd ~chunk frames on_payload =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Again
  | exception Unix.Unix_error _ -> `Closed
  | 0 -> `Closed
  | k ->
      Frame.feed frames chunk k;
      let rec drain () =
        match Frame.next frames with
        | Ok (Some payload) ->
            on_payload payload;
            drain ()
        | Ok None -> `Read
        | Error e -> `Bad e
      in
      drain ()

(* --- Write queue ----------------------------------------------------------- *)

type slice = { buf : string; mutable off : int }
type queue = { slices : slice Queue.t; mutable bytes : int }

let queue () = { slices = Queue.create (); bytes = 0 }

let push q s =
  Queue.push { buf = s; off = 0 } q.slices;
  q.bytes <- q.bytes + String.length s

let queued q = q.bytes

let clear q =
  Queue.clear q.slices;
  q.bytes <- 0

(* Consume [n] written bytes off the front of the slice queue. *)
let consume q n =
  q.bytes <- q.bytes - n;
  let remaining = ref n in
  while !remaining > 0 do
    let s = Queue.peek q.slices in
    let rem = String.length s.buf - s.off in
    if !remaining >= rem then begin
      ignore (Queue.pop q.slices);
      remaining := !remaining - rem
    end
    else begin
      s.off <- s.off + !remaining;
      remaining := 0
    end
  done

exception Closed

(* Slices below this size are coalesced into the scratch buffer so one
   syscall carries many small frames; larger slices (big payloads) are
   written directly from their own bytes. *)
let direct_write_threshold = 4096

let flush q fd ~scratch =
  let rec go () =
    if Queue.is_empty q.slices then true
    else begin
      let front = Queue.peek q.slices in
      let front_rem = String.length front.buf - front.off in
      if front_rem >= direct_write_threshold then (
        match Unix.write_substring fd front.buf front.off front_rem with
        | k ->
            consume q k;
            k = front_rem && go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            false
        | exception Unix.Unix_error _ -> raise Closed)
      else begin
        (* Coalesce consecutive small slices into scratch. *)
        let filled = ref 0 in
        (try
           Queue.iter
             (fun s ->
               let rem = String.length s.buf - s.off in
               if
                 rem >= direct_write_threshold
                 || !filled + rem > Bytes.length scratch
               then raise Exit;
               Bytes.blit_string s.buf s.off scratch !filled rem;
               filled := !filled + rem)
             q.slices
         with Exit -> ());
        match Unix.write fd scratch 0 !filled with
        | k ->
            consume q k;
            k = !filled && go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            false
        | exception Unix.Unix_error _ -> raise Closed
      end
    end
  in
  go ()
