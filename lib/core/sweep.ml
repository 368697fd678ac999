let pct = Prob.Nines.percent_string

let m_cells = Obs.Metrics.counter ~family:"sweep" "cells"
let m_cell_seconds = Obs.Metrics.histogram ~family:"sweep" "cell_seconds"

(* Every sweep row/cell funnels through this, so cells/sec is just
   [cells / Σ cell_seconds] from one snapshot. *)
let timed_cell f =
  Obs.Metrics.incr m_cells;
  Obs.Span.time m_cell_seconds f

(* Grid cells are independent Analysis.run instances: evaluate the
   flattened (row, col) cell list on the domain pool and reassemble the
   table in order. Cells force ~domains:1 on their inner analysis — the
   parallelism budget is spent across cells, and Pool makes nested
   calls sequential anyway. *)
let grid_cells ~rows ~cols cell =
  let n_rows = List.length rows and n_cols = List.length cols in
  let rows_a = Array.of_list rows and cols_a = Array.of_list cols in
  let flat =
    Parallel.Pool.map (n_rows * n_cols) (fun i ->
        timed_cell (fun () -> cell rows_a.(i / n_cols) cols_a.(i mod n_cols)))
  in
  List.init n_rows (fun r ->
      List.init n_cols (fun c -> flat.((r * n_cols) + c)))

(* Sweep cells answer through the registry — the same
   scenario-to-result path the CLI and the query service use — so a
   grid cell and a served reply for the same scenario are the same
   number by construction. Cells that fail model validation (e.g. a
   PBFT column at n=3) render as "-". *)
let run_cell s =
  match Registry.analyze ~domains:1 s with
  | Ok r -> r
  | Error msg -> invalid_arg ("Sweep: " ^ msg)

let scenario_grid ?(row_label = "scenario") ~base ~rows ~cols () =
  let header = row_label :: List.map fst cols in
  let t = Report.create ~header in
  let cells =
    grid_cells ~rows ~cols (fun (_, row) (_, col) ->
        match Registry.analyze ~domains:1 (col (row base)) with
        | Ok r -> pct r.Analysis.p_safe_live
        | Error _ -> "-")
  in
  List.iter2
    (fun (label, _) row -> Report.add_row t (label :: row))
    rows cells;
  t

let uniform_axes ~ns ~ps =
  ( List.map
      (fun n -> (string_of_int n, Scenario.with_mix [ (n, 0.01) ]))
      ns,
    List.map (fun p -> (Printf.sprintf "p=%g" p, Scenario.with_p p)) ps )

let raft_grid ~ns ~ps () =
  let rows, cols = uniform_axes ~ns ~ps in
  let base = Scenario.uniform ~protocol:"raft" ~n:3 ~p:0.01 () in
  scenario_grid ~row_label:"N" ~base ~rows ~cols ()

let pbft_grid ~ns ~ps () =
  let rows, cols = uniform_axes ~ns ~ps in
  let base = Scenario.uniform ~protocol:"pbft" ~n:4 ~p:0.01 () in
  scenario_grid ~row_label:"N" ~base ~rows ~cols ()

let pbft_safety_liveness_grid ~ns ~p () =
  let t = Report.create ~header:[ "N"; "safe"; "live"; "safe&live"; "safe-or-accountable" ] in
  let rows =
    Parallel.Pool.map (List.length ns) (fun i ->
        timed_cell @@ fun () ->
        let n = List.nth ns i in
        let s = Scenario.uniform ~protocol:"pbft" ~n ~p () in
        let r = run_cell s in
        let forensic = run_cell (Scenario.with_protocol "pbft-forensics" s) in
        [
          string_of_int n;
          pct r.Analysis.p_safe;
          pct r.Analysis.p_live;
          pct r.Analysis.p_safe_live;
          pct forensic.Analysis.p_safe;
        ])
  in
  Array.iter (Report.add_row t) rows;
  t

let table1 () =
  let t =
    Report.create
      ~header:[ "N"; "|Qeq|"; "|Qper|"; "|Qvc|"; "|Qvc_t|"; "Safe"; "Live"; "Safe&Live" ]
  in
  List.iter
    (fun n ->
      let params = Pbft_model.default n in
      let fleet = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n ~p:0.01 () in
      let r = Analysis.run (Pbft_model.protocol params) fleet in
      Report.add_row t
        [
          string_of_int n;
          string_of_int params.Pbft_model.q_eq;
          string_of_int params.Pbft_model.q_per;
          string_of_int params.Pbft_model.q_vc;
          string_of_int params.Pbft_model.q_vc_t;
          pct r.Analysis.p_safe;
          pct r.Analysis.p_live;
          pct r.Analysis.p_safe_live;
        ])
    [ 4; 5; 7; 8 ];
  t

let table2 () =
  let t =
    Report.create
      ~header:[ "N"; "|Qper|"; "|Qvc|"; "S&L p=1%"; "S&L p=2%"; "S&L p=4%"; "S&L p=8%" ]
  in
  List.iter
    (fun n ->
      let params = Raft_model.default n in
      Report.add_row t
        ([
           string_of_int n;
           string_of_int params.Raft_model.q_per;
           string_of_int params.Raft_model.q_vc;
         ]
        @ List.map
            (fun p -> pct (Raft_model.safe_and_live_uniform ~n ~p))
            [ 0.01; 0.02; 0.04; 0.08 ]))
    [ 3; 5; 7; 9 ];
  t

let timeline fleet ~times =
  let n = Faultmodel.Fleet.size fleet in
  let proto = Raft_model.protocol (Raft_model.default n) in
  let t = Report.create ~header:[ "mission time (h)"; "safe&live"; "nines" ] in
  let rows =
    Parallel.Pool.map (List.length times) (fun i ->
        timed_cell @@ fun () ->
        let at = List.nth times i in
        let r = Analysis.run ~at ~domains:1 proto fleet in
        [
          Printf.sprintf "%.0f" at;
          pct r.Analysis.p_safe_live;
          Printf.sprintf "%.2f" (Prob.Nines.of_prob r.Analysis.p_safe_live);
        ])
  in
  Array.iter (Report.add_row t) rows;
  t

let min_cluster_frontier ~targets ~ps () =
  let header = "target" :: List.map (fun p -> Printf.sprintf "p=%g" p) ps in
  let t = Report.create ~header in
  let cells =
    grid_cells ~rows:targets ~cols:ps (fun target p ->
        match Equivalence.min_raft_cluster ~target ~p () with
        | Some e -> string_of_int e.Equivalence.n
        | None -> "-")
  in
  List.iter2
    (fun target row -> Report.add_row t (pct target :: row))
    targets cells;
  t
