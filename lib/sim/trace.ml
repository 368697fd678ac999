type entry = { time : float; node : int; tag : string; detail : string }

type t = { mutable rev_entries : entry list; mutable length : int }

let create () = { rev_entries = []; length = 0 }

let record t ~time ~node ~tag ~detail =
  t.rev_entries <- { time; node; tag; detail } :: t.rev_entries;
  t.length <- t.length + 1

let entries t = List.rev t.rev_entries

let count t ~tag =
  List.fold_left (fun acc e -> if e.tag = tag then acc + 1 else acc) 0 t.rev_entries
