type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    let capacity = max 8 (2 * Array.length t.data) in
    let fresh = Array.make capacity x in
    Array.blit t.data 0 fresh 0 t.len;
    t.data <- fresh
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  t.len <- n

let to_list t = List.init t.len (fun i -> t.data.(i))
