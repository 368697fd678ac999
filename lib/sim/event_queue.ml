type 'a cell = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a cell array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; len = 0; next_seq = 0 }

let size t = t.len

let precedes a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.len && precedes t.heap.(left) t.heap.(!smallest) then smallest := left;
  if right < t.len && precedes t.heap.(right) t.heap.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let ensure_capacity t cell =
  if t.len = Array.length t.heap then begin
    let capacity = max 16 (2 * Array.length t.heap) in
    let fresh = Array.make capacity cell in
    Array.blit t.heap 0 fresh 0 t.len;
    t.heap <- fresh
  end

let push t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  let cell = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  ensure_capacity t cell;
  t.heap.(t.len) <- cell;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.heap.(0) <- t.heap.(t.len);
      sift_down t 0
    end;
    Some (top.time, top.payload)
  end

let peek_time t = if t.len = 0 then None else Some t.heap.(0).time
