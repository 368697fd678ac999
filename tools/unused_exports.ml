(* Class each value a lib/ interface exports by who uses it, and each
   of its optional parameters by who passes it.

   Usage: dune build @check && dune exec tools/unused_exports.exe

   Reads every .cmti and .cmt under _build/default; dune build @check
   writes them for libraries and executables alike. An export is a
   [val] of a lib/ .cmti, nested module signatures included. A use is
   a value identifier in any .cmt. Both carry the declaration's uid,
   which names its compilation unit, so two modules that share a short
   name (Obs.Metrics and Quorum.Metrics) stay apart.

   A parameter is each [?l] arrow of an export's type. A pass is an
   application of the export's identifier whose argument [?l] sits at a
   real location and is not the literal constructor [None]: [f ~l:v]
   and [f ?l:v] carry their source location, while the [None] the type
   checker fills in for an [?l] left out of a full application sits at
   Location.none. A written-out [f ?l:None] asks for the default just
   as leaving [?l] out does, so it passes nothing either. A wrapper
   that forwards [?l] passes it, so deleting the wrapper's own [?l] can
   leave the forwarded one with no caller on the next run.

   Each export and each parameter takes the first class that fits:

   - production: another lib/ unit, bin/, tools/, examples/ or bench/
   - perfbench: perfbench/
   - test-only: test/
   - own-unit: its own .ml only
   - none: nothing

   A unit's .ml and .mli draw uids from separate counters on OCaml 5.1,
   so a use inside the unit's own .ml (an implementation uid) can equal
   the interface uid of another of its values. Such uses and passes are
   matched by name through the .ml's own signature, never by uid. Uses
   from any other unit see only the .cmi, so their uids are interface
   uids.

   Limits: a function applied through a local alias ([let g = M.f in
   g ~l:v ()]) is not seen to pass [?l], and the [val]s of a module type
   (Registry.Protocol_model) are not exports. A missed pass can only
   make a parameter look unpassed: deleting it then fails to type-check
   at the pass, never builds a wrong program.

   Prints one file:line: line per export and per parameter that is not
   production, the failing ones first, then one line of counts per
   class. Exits 1 when an export is own-unit or none or a parameter is
   none, and 2 when the build tree lacks what the classes need. *)

type klass = Production | Perfbench | Test_only | Own_unit | No_user

let klass_name = function
  | Production -> "production"
  | Perfbench -> "perfbench"
  | Test_only -> "test-only"
  | Own_unit -> "own-unit"
  | No_user -> "none"

(* The class a use from each top-level source directory gives. Each
   must hold at least one .cmt, or @check did not run. *)
let dirs =
  [ ("lib", Production); ("bin", Production); ("tools", Production);
    ("examples", Production); ("bench", Production);
    ("perfbench", Perfbench); ("test", Test_only) ]

let top_dir source =
  match String.index_opt source '/' with
  | Some i -> String.sub source 0 i
  | None -> ""

let rec files dir acc =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then files path acc
      else if Filename.check_suffix path ".cmt"
              || Filename.check_suffix path ".cmti"
      then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* Every value of a signature with its dotted name inside the unit. *)
let rec values prefix sg acc =
  List.fold_left
    (fun acc item ->
      match item with
      | Types.Sig_value (id, vd, _) -> (prefix ^ Ident.name id, vd) :: acc
      | Types.Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
          values (prefix ^ Ident.name id ^ ".") sg acc
      | _ -> acc)
    acc sg

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) | Tpoly (ret, _) -> optional_labels ret
  | _ -> []

(* [f ?l:None] asks for the default, as leaving [?l] out does. *)
let is_none (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "None"; _ }, []) -> true
  | _ -> false

(* An export when [label] is [None], else its parameter [?label]. *)
type export = {
  unit : string;
  name : string;
  label : string option;
  loc : Location.t;
}

let failing (k, e) =
  match (k, e.label) with
  | No_user, _ | Own_unit, None -> true
  | _ -> false

let () =
  let root = "_build/default" in
  if not (Sys.file_exists root) then begin
    prerr_endline "unused_exports: no _build/default: run dune build @check first";
    exit 2
  end;
  let exports = ref [] in
  let interfaces = Hashtbl.create 128 in
  let implementations = ref [] in
  let read_dirs = Hashtbl.create 8 in
  (* Uses (label None) and passes (Some l) from other units, by
     interface uid, and from a unit's own .ml, by (unit, name). *)
  let used = Hashtbl.create 4096 in
  let own = Hashtbl.create 256 in
  let use key k =
    match Hashtbl.find_opt used key with
    | Some k' when k' <= k -> ()
    | _ -> Hashtbl.replace used key k
  in
  List.iter
    (fun path ->
      let cmt = Cmt_format.read_cmt path in
      let unit = cmt.cmt_modname in
      let source = Option.value cmt.cmt_sourcefile ~default:"" in
      let dir = top_dir source in
      match cmt.cmt_annots with
      | Interface sg when dir = "lib" ->
          Hashtbl.replace interfaces unit ();
          List.iter
            (fun (name, (vd : Types.value_description)) ->
              List.iter
                (fun label ->
                  exports :=
                    ({ unit; name; label; loc = vd.val_loc }, vd.val_uid)
                    :: !exports)
                (None
                :: List.map Option.some (optional_labels vd.val_type)))
            (values "" sg.sig_type [])
      | Implementation str -> (
          Hashtbl.replace read_dirs dir ();
          if dir = "lib" && Filename.check_suffix source ".ml" then
            implementations := (unit, source) :: !implementations;
          match List.assoc_opt dir dirs with
          | None -> ()
          | Some k ->
              let own_names = Shape.Uid.Tbl.create 64 in
              List.iter
                (fun (name, (vd : Types.value_description)) ->
                  Shape.Uid.Tbl.replace own_names vd.val_uid name)
                (values "" str.str_type []);
              let note label (vd : Types.value_description) =
                match vd.val_uid with
                | Item { comp_unit; _ } when comp_unit = unit -> (
                    match Shape.Uid.Tbl.find_opt own_names vd.val_uid with
                    | Some name -> Hashtbl.replace own (unit, name, label) ()
                    | None -> ())
                | uid -> use (uid, label) k
              in
              let expr sub (e : Typedtree.expression) =
                (match e.exp_desc with
                | Texp_ident (_, _, vd) -> note None vd
                | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
                    List.iter
                      (function
                        | Asttypes.Optional l, Some (a : Typedtree.expression)
                          when a.exp_loc <> Location.none && not (is_none a) ->
                            note (Some l) vd
                        | _ -> ())
                      args
                | _ -> ());
                Tast_iterator.default_iterator.expr sub e
              in
              let it = { Tast_iterator.default_iterator with expr } in
              it.structure it str)
      | _ -> ())
    (files root []);
  (* A reader that reads nothing must not pass. *)
  let missing =
    List.filter_map
      (fun (unit, source) ->
        if Hashtbl.mem interfaces unit then None
        else Some (source ^ " has no interface (.cmti)"))
      !implementations
    @ List.filter_map
        (fun (dir, _) ->
          if Hashtbl.mem read_dirs dir then None
          else Some ("no .cmt under " ^ dir ^ "/ (run dune build @check first)"))
        dirs
  in
  if missing <> [] then begin
    List.iter (fun m -> prerr_endline ("unused_exports: " ^ m)) missing;
    exit 2
  end;
  let classed =
    List.map
      (fun (e, uid) ->
        let k =
          match Hashtbl.find_opt used (uid, e.label) with
          | Some k -> k
          | None ->
              if Hashtbl.mem own (e.unit, e.name, e.label) then Own_unit
              else No_user
        in
        (k, e))
      !exports
  in
  let key ((_, e) as c) =
    (not (failing c), e.loc.loc_start.pos_fname, e.loc.loc_start.pos_lnum,
     e.label)
  in
  List.iter
    (fun (k, e) ->
      if k <> Production then
        let p = e.loc.loc_start in
        let modname =
          String.capitalize_ascii
            (Filename.remove_extension (Filename.basename p.pos_fname))
        in
        Printf.printf "%s:%d: %s: %s.%s%s\n" p.pos_fname p.pos_lnum
          (klass_name k) modname e.name
          (match e.label with Some l -> " ?" ^ l | None -> ""))
    (List.sort (fun a b -> compare (key a) (key b)) classed);
  let count p = List.length (List.filter p classed) in
  List.iter
    (fun k ->
      Printf.printf "%s: %d exports, %d parameters\n" (klass_name k)
        (count (fun (k', e) -> k' = k && e.label = None))
        (count (fun (k', e) -> k' = k && e.label <> None)))
    [ Production; Perfbench; Test_only; Own_unit; No_user ];
  let exports_bad = count (fun (k, e) -> failing (k, e) && e.label = None) in
  let params_bad = count (fun (k, e) -> failing (k, e) && e.label <> None) in
  if exports_bad + params_bad > 0 then begin
    Printf.eprintf
      "unused_exports: %d export(s) with no user outside their own module \
       (delete each, or drop it from its .mli) and %d optional \
       parameter(s) no caller passes (delete each; its default becomes a \
       constant)\n"
      exports_bad params_bad;
    exit 1
  end
