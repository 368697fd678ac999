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
   g ~l:v ()]) is not seen to pass [?l]. A missed pass can only make a
   parameter look unpassed: deleting it then fails to type-check at the
   pass, never builds a wrong program.

   A test-only export or parameter must be on the allowlist,
   tools/unused_exports.allow, which this tool reads from the current
   directory (the repository root under dune exec). Blank lines and
   lines starting with # are comments. Every other line is one entry:

     Module.value test/file.ml
     Module.value ?label test/file.ml

   where Module is the interface's file name, capitalized, and
   Module.value is printed as below (Pbft_cluster.create ?q_eq). The
   test file is the one that covers the value, and must name it:
   contain the text Module.value and, for a parameter, ~label or
   ?label. An entry is stale when no test-only export or parameter has
   its name (the value is gone, or now has a production or perfbench
   user), or when its test file is missing or does not name the value.
   One entry covers every test-only item of its name, should two
   modules of one name each export it.

   Prints one file:line: line per export and per parameter that is not
   production and one allowlist:line: line per stale entry, the failing
   ones first, then one line of counts per class. Exits 1 when an export
   is own-unit or none, a parameter is own-unit or none, a test-only
   export or parameter has no allowlist entry, or an entry is stale or
   malformed; and 2 when the build tree lacks what the classes need or
   the allowlist is missing. *)

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

let allow_path = "tools/unused_exports.allow"

(* How the log names an export or parameter: Module.value ?label. *)
let name value label =
  match label with Some l -> value ^ " ?" ^ l | None -> value

let display e =
  let modname =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename e.loc.loc_start.pos_fname))
  in
  name (modname ^ "." ^ e.name) e.label

(* One allowlist line: Module.value, the label of a parameter entry,
   and the test file. *)
type entry = { line : int; value : string; param : string option; file : string }

(* The entries, and each malformed line as [Error (line, text)]. *)
let read_allowlist () =
  In_channel.with_open_text allow_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i text ->
         let line = i + 1 and text = String.trim text in
         let label l =
           if String.length l > 1 && l.[0] = '?' then
             Some (String.sub l 1 (String.length l - 1))
           else None
         in
         if text = "" || text.[0] = '#' then None
         else
           Some
             (match List.filter (( <> ) "") (String.split_on_char ' ' text) with
             | [ value; file ] when String.contains value '.' ->
                 Ok { line; value; param = None; file }
             | [ value; l; file ] when String.contains value '.' && label l <> None ->
                 Ok { line; value; param = label l; file }
             | _ -> Error (line, text)))
  |> List.filter_map Fun.id

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
  go 0

(* Why an entry is stale, if it is: a test-only value must have its
   name, and its test file must name the value and pass the label. *)
let entry_problem ~test_only e =
  if not (List.mem (name e.value e.param) test_only) then
    Some "no test-only export or parameter of this name"
  else if not (Sys.file_exists e.file) then Some (e.file ^ " does not exist")
  else
    let text = In_channel.with_open_bin e.file In_channel.input_all in
    if not (contains text e.value) then Some (e.file ^ " does not name " ^ e.value)
    else
      match e.param with
      | Some l when not (contains text ("~" ^ l) || contains text ("?" ^ l)) ->
          Some (Printf.sprintf "%s does not pass ~%s" e.file l)
      | _ -> None

let failing ~allowed (k, e) =
  match k with
  | No_user | Own_unit -> true
  | Test_only -> not (allowed (display e))
  | Production | Perfbench -> false

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
  if not (Sys.file_exists allow_path) then begin
    prerr_endline ("unused_exports: no " ^ allow_path);
    exit 2
  end;
  let entries = read_allowlist () in
  let test_only =
    List.filter_map
      (fun (k, e) -> if k = Test_only then Some (display e) else None)
      classed
  in
  let stale =
    List.filter_map
      (function
        | Error (line, text) -> Some (line, "malformed entry: " ^ text)
        | Ok e ->
            Option.map
              (fun why ->
                (e.line, Printf.sprintf "stale: %s (%s)" (name e.value e.param) why))
              (entry_problem ~test_only e))
      entries
  in
  let allowed n =
    List.exists
      (function Ok e -> String.equal (name e.value e.param) n | Error _ -> false)
      entries
  in
  let failing = failing ~allowed in
  let key ((_, e) as c) =
    (not (failing c), e.loc.loc_start.pos_fname, e.loc.loc_start.pos_lnum,
     e.label)
  in
  List.iter
    (fun (line, msg) -> Printf.printf "%s:%d: %s\n" allow_path line msg)
    stale;
  List.iter
    (fun ((k, e) as c) ->
      if k <> Production then
        let p = e.loc.loc_start in
        Printf.printf "%s:%d: %s%s: %s\n" p.pos_fname p.pos_lnum (klass_name k)
          (if k = Test_only && failing c then " (not on the allowlist)" else "")
          (display e))
    (List.sort (fun a b -> compare (key a) (key b)) classed);
  let count p = List.length (List.filter p classed) in
  List.iter
    (fun k ->
      Printf.printf "%s: %d exports, %d parameters\n" (klass_name k)
        (count (fun (k', e) -> k' = k && e.label = None))
        (count (fun (k', e) -> k' = k && e.label <> None)))
    [ Production; Perfbench; Test_only; Own_unit; No_user ];
  let unused = count (fun (k, _) -> k = Own_unit || k = No_user) in
  let unlisted = count (fun ((k, _) as c) -> k = Test_only && failing c) in
  if unused + unlisted + List.length stale > 0 then begin
    Printf.eprintf
      "unused_exports: %d export(s) or parameter(s) with no user outside \
       their own module (delete each export, or drop it from its .mli; a \
       parameter goes and its default becomes a constant), %d test-only \
       one(s) not on %s, and %d stale or malformed entries there\n"
      unused unlisted allow_path (List.length stale);
    exit 1
  end
