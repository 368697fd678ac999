type t = { header : string list; mutable rows : string list list }

let create ~header = { header; rows = [] }

let add_row t row =
  let width = List.length t.header in
  let len = List.length row in
  if len > width then invalid_arg "Report.add_row: row wider than header";
  let padded = row @ List.init (width - len) (fun _ -> "") in
  t.rows <- padded :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let buf = Buffer.create 256 in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row t.header;
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let csv_cell cell =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell
  in
  if not needs_quoting then cell
  else begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let line row = String.concat "," (List.map csv_cell row) in
  String.concat "\n" (line t.header :: List.map line (List.rev t.rows)) ^ "\n"

let print ?title t =
  (match title with
  | Some s ->
      print_endline s;
      print_endline (String.make (String.length s) '=')
  | None -> ());
  print_string (render t)

let metrics_table snapshot =
  let t =
    create ~header:[ "family"; "metric"; "kind"; "value"; "p50"; "p90"; "p99"; "max" ]
  in
  let g v = Printf.sprintf "%.4g" v in
  List.iter
    (fun (s : Obs.Metrics.sample) ->
      let row =
        match s.value with
        | Obs.Metrics.Counter v ->
            [ s.family; s.name; "counter"; string_of_int v ]
        | Obs.Metrics.Gauge v -> [ s.family; s.name; "gauge"; string_of_int v ]
        | Obs.Metrics.Histogram h ->
            [ s.family; s.name; "histogram"; Printf.sprintf "n=%d" h.count;
              g h.p50; g h.p90; g h.p99; g h.max ]
      in
      add_row t row)
    snapshot;
  t
