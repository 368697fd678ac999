(* Spans the benchmark records around its own calls into each layer.

   One recorder per client thread, kept in memory: a span is its name,
   start, end, the span that caused it and the request it belongs to.
   A disabled recorder only runs the wrapped call, so the same loop
   serves the untraced and the traced phases of a run. *)

type span = {
  index : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** Index of the enclosing span, or -1 for a root. *)
  request : int;
}

type t = {
  mutable enabled : bool;
  mutable spans : span list;
  mutable count : int;
  mutable open_ : int list;  (** Indices of the spans still running. *)
}

let create () = { enabled = false; spans = []; count = 0; open_ = [] }

let span t ~request name f =
  if not t.enabled then f ()
  else
    let index = t.count in
    t.count <- t.count + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- index :: t.open_;
    let start = Unix.gettimeofday () in
    let finish () =
      t.open_ <- List.tl t.open_;
      t.spans <-
        { index; name; start; stop = Unix.gettimeofday (); parent; request }
        :: t.spans
    in
    Fun.protect ~finally:finish f

(* Per span name: how many spans, and their mean self time in
   microseconds (duration minus the part covered by child spans). *)
let self_times recorders =
  let table = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let by_index = Array.make t.count None in
      List.iter (fun s -> by_index.(s.index) <- Some s) t.spans;
      let child = Array.make t.count 0. in
      Array.iter
        (function
          | Some s when s.parent >= 0 ->
              child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
          | _ -> ())
        by_index;
      Array.iteri
        (fun i -> function
          | None -> ()
          | Some s ->
              let n, total =
                Option.value (Hashtbl.find_opt table s.name) ~default:(0, 0.)
              in
              Hashtbl.replace table s.name
                (n + 1, total +. (s.stop -. s.start -. child.(i))))
        by_index)
    recorders;
  Hashtbl.fold
    (fun name (n, total) acc -> (name, n, total *. 1e6 /. float_of_int n) :: acc)
    table []
  |> List.sort compare
