module R = Relational
module D = Deleprop
module S = Deleprop.Solution

let magic = "DLPSNAP1"

(* v3: per-entry decomposition records (the per-fragment cost
   decompositions [Planner.seed_fragments] restricts across splits), the
   per-tier fragment-reuse counters, and incremental delta frames
   appended between full images ({!append}). Every other version — v2
   images from before those existed, v1 images from before the
   baseline/generation coordinates — loads as [Version_mismatch] and
   degrades to a cold cache, like any other unreadable image. *)
let version = 3

type coords = {
  position : int;
  generation : int;
  arena_fp : D.Fingerprint.t;
  components : int;
  dirty : int list;
  stats : D.Planner.cache_stats;
}

type t = {
  coords : coords;
  baseline : (R.Stuple.Set.t * R.Stuple.Set.t) option;
  entries : (D.Fingerprint.t * D.Planner.cache_entry) list;
}

(* one incremental append between full images: the refreshed
   coordinates, the cache changes since the previous frame (upserted
   bindings, removed fingerprints, the full MRU order), and the round's
   database delta — folding a delta group over the image it follows
   reproduces the [t] a full write at the same moment would have
   produced *)
type delta = {
  d_coords : coords;
  d_removed : D.Fingerprint.t list;
  d_order : D.Fingerprint.t list;
  d_deletes : R.Stuple.Set.t;
  d_inserts : R.Stuple.Set.t;
  d_upserts : (D.Fingerprint.t * D.Planner.cache_entry) list;
}

type warning =
  | Missing
  | Version_mismatch of int
  | Corrupt of string
  | Stale

let pp_warning ppf = function
  | Missing -> Format.pp_print_string ppf "no snapshot on disk"
  | Version_mismatch v ->
    Format.fprintf ppf "snapshot version %d unsupported (this build reads %d)" v version
  | Corrupt reason -> Format.fprintf ppf "snapshot corrupt: %s" reason
  | Stale ->
    Format.pp_print_string ppf "snapshot does not match the journal replay"

let warning_label = function
  | Missing -> "missing"
  | Version_mismatch _ -> "version_mismatch"
  | Corrupt _ -> "corrupt"
  | Stale -> "stale"

(* Framing is the journal's own ([Journal.frame]: u32 LE length, u32 LE
   CRC-32, payload). *)

(* ---- payload codecs ----

   Floats travel as the 16 hex digits of [Int64.bits_of_float], so a
   restored entry is bit-identical to the cached one — the re-warm
   equivalence property compares costs and certificates exactly, not up
   to printing precision. *)

let hex_of_float f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let float_of_hex s =
  match D.Fingerprint.of_hex s with
  | Some bits -> Int64.float_of_bits bits
  | None -> failwith "bad float bits"

let fp_of_hex s =
  match D.Fingerprint.of_hex s with
  | Some fp -> fp
  | None -> failwith "bad fingerprint"

(* "key value" with an exact key match; "" for a bare "key" line *)
let field key line =
  let klen = String.length key in
  if
    String.length line >= klen
    && String.sub line 0 klen = key
    && (String.length line = klen || line.[klen] = ' ')
  then
    if String.length line = klen then ""
    else String.sub line (klen + 1) (String.length line - klen - 1)
  else failwith (Printf.sprintf "expected %S field" key)

let string_of_cert = function
  | S.Exact -> "exact"
  | S.Dual_bound f -> "dual " ^ hex_of_float f
  | S.Ratio f -> "ratio " ^ hex_of_float f
  | S.Heuristic -> "heuristic"
  | S.Anytime -> "anytime"
  | S.Composite { shards; factor } ->
    Printf.sprintf "composite %d %s" shards
      (match factor with None -> "-" | Some f -> hex_of_float f)

let cert_of_string s =
  match String.split_on_char ' ' s with
  | [ "exact" ] -> S.Exact
  | [ "dual"; b ] -> S.Dual_bound (float_of_hex b)
  | [ "ratio"; b ] -> S.Ratio (float_of_hex b)
  | [ "heuristic" ] -> S.Heuristic
  | [ "anytime" ] -> S.Anytime
  | [ "composite"; n; f ] ->
    S.Composite
      {
        shards = int_of_string n;
        factor = (if f = "-" then None else Some (float_of_hex f));
      }
  | _ -> failwith "bad certificate"

let string_of_class = function
  | D.Planner.Exact_small -> "small"
  | D.Planner.Exact_forest -> "forest"
  | D.Planner.Approximate -> "approx"

let class_of_string = function
  | "small" -> D.Planner.Exact_small
  | "forest" -> D.Planner.Exact_forest
  | "approx" -> D.Planner.Approximate
  | _ -> failwith "bad classification"

let int_list_of_line key line =
  field key line |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")
  |> List.map int_of_string

(* The coordinate block travels identically in the header and in delta
   frames: the journal coordinates, then the cache counters. The
   "splices" line carries the per-tier counters' total. *)
let coords_lines c =
  let s = c.stats in
  [
    "position " ^ string_of_int c.position;
    "generation " ^ string_of_int c.generation;
    "arena " ^ D.Fingerprint.to_hex c.arena_fp;
    "components " ^ string_of_int c.components;
    String.concat " " ("dirty" :: List.map string_of_int c.dirty);
    "hits " ^ string_of_int s.D.Planner.s_hits;
    "misses " ^ string_of_int s.D.Planner.s_misses;
    "evictions " ^ string_of_int s.D.Planner.s_evictions;
    ("bucket "
    ^
    match s.D.Planner.s_last_bucket with
    | None -> "-"
    | Some b -> string_of_int b);
    "splices " ^ string_of_int (D.Planner.fragment_reuses s);
    "splices_exact " ^ string_of_int s.D.Planner.s_fragment_reuses_exact;
    "splices_forest " ^ string_of_int s.D.Planner.s_fragment_reuses_forest;
    "splices_approx " ^ string_of_int s.D.Planner.s_fragment_reuses_approx;
  ]

(* returns the block and the lines after it *)
let decode_coords = function
  | pos :: gen :: ar :: comp :: dirty :: hits :: misses :: ev :: bucket
    :: splices :: se :: sf :: sa :: rest ->
    let stats =
      {
        D.Planner.s_hits = int_of_string (field "hits" hits);
        s_misses = int_of_string (field "misses" misses);
        s_evictions = int_of_string (field "evictions" ev);
        s_last_bucket =
          (match field "bucket" bucket with
          | "-" -> None
          | b -> Some (int_of_string b));
        s_fragment_reuses_exact = int_of_string (field "splices_exact" se);
        s_fragment_reuses_forest = int_of_string (field "splices_forest" sf);
        s_fragment_reuses_approx = int_of_string (field "splices_approx" sa);
      }
    in
    (* the total is derived from the per-tier counters on load *)
    ignore (int_of_string (field "splices" splices));
    ( {
        position = int_of_string (field "position" pos);
        generation = int_of_string (field "generation" gen);
        arena_fp = fp_of_hex (field "arena" ar);
        components = int_of_string (field "components" comp);
        dirty = int_list_of_line "dirty" dirty;
        stats;
      },
      rest )
  | _ -> failwith "truncated coordinate block"

let header_payload t =
  String.concat "\n"
    (("H" :: ("version " ^ string_of_int version) :: coords_lines t.coords)
    @ [
        ("baseline " ^ match t.baseline with None -> "0" | Some _ -> "1");
        "entries " ^ string_of_int (List.length t.entries);
      ])

exception Bad_version of int

let decode_header payload =
  match String.split_on_char '\n' payload with
  | "H" :: v :: rest -> (
    let v = int_of_string (field "version" v) in
    if v <> version then raise (Bad_version v);
    let coords, rest = decode_coords rest in
    match rest with
    | [ baseline; entries ] ->
      let has_baseline =
        match field "baseline" baseline with
        | "1" -> true
        | "0" -> false
        | _ -> failwith "bad baseline flag"
      in
      (coords, has_baseline, int_of_string (field "entries" entries))
    | _ -> failwith "malformed header")
  | _ -> failwith "malformed header"

(* ---- decomposition section ---- *)

let cert_slice_token = function
  | D.Decomposition.Slice_exact -> "exact"
  | D.Decomposition.Slice_heuristic -> "heuristic"
  | D.Decomposition.Slice_ratio f -> "ratio:" ^ hex_of_float f

let cert_slice_of_token s =
  match s with
  | "exact" -> D.Decomposition.Slice_exact
  | "heuristic" -> D.Decomposition.Slice_heuristic
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "ratio" ->
      D.Decomposition.Slice_ratio
        (float_of_hex (String.sub s (i + 1) (String.length s - i - 1)))
    | _ -> failwith "bad certificate slice")

(* Labels, node keys and pivots are [Stuple.to_string] content — they
   may contain spaces, so each travels on its own line, delimited by the
   counts in the structural lines around it. *)
let decomp_lines (d : D.Decomposition.t) =
  let trees =
    match d.D.Decomposition.d_structure with
    | D.Decomposition.Forest ts -> ts
    | _ -> []
  in
  let tag =
    match d.D.Decomposition.d_structure with
    | D.Decomposition.Witness_groups -> "groups"
    | D.Decomposition.Forest _ -> "forest"
    | D.Decomposition.Contributions -> "contrib"
  in
  Printf.sprintf "decomp %s %d %d %d" tag d.D.Decomposition.d_vtuples
    (List.length d.D.Decomposition.d_parts)
    (List.length trees)
  :: List.concat_map
       (fun (p : D.Decomposition.part) ->
         Printf.sprintf "part %s %s %d"
           (hex_of_float p.D.Decomposition.p_cost)
           (cert_slice_token p.D.Decomposition.p_cert)
           (R.Stuple.Set.cardinal p.D.Decomposition.p_deleted)
         :: p.D.Decomposition.p_label
         :: List.map R.Stuple.to_string
              (R.Stuple.Set.elements p.D.Decomposition.p_deleted))
       d.D.Decomposition.d_parts
  @ List.concat_map
      (fun (tr : D.Decomposition.forest_tree) ->
        Printf.sprintf "tree %d" (List.length tr.D.Decomposition.ft_nodes)
        :: tr.D.Decomposition.ft_pivot
        :: List.concat_map
             (fun (k, (n : D.Decomposition.forest_node)) ->
               Printf.sprintf "node %d %s %s %s %s"
                 n.D.Decomposition.fn_depth
                 (if n.D.Decomposition.fn_cut then "1" else "0")
                 (hex_of_float n.D.Decomposition.fn_value)
                 (hex_of_float n.D.Decomposition.fn_slack)
                 (match n.D.Decomposition.fn_parent with
                 | None -> "-"
                 | Some _ -> "P")
               :: k
               ::
               (match n.D.Decomposition.fn_parent with
               | None -> []
               | Some pk -> [ pk ]))
             tr.D.Decomposition.ft_nodes)
      trees

let take n lines =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | x :: rest -> go (n - 1) (x :: acc) rest
    | [] -> failwith "truncated section"
  in
  go n [] lines

let fact_of_line line =
  let rel, tuple = R.Serial.fact_of_string line in
  R.Stuple.make rel tuple

let decode_decomp lines =
  match lines with
  | [] -> failwith "missing decomposition"
  | l :: rest -> (
    match String.split_on_char ' ' (field "decomp" l) with
    | [ tag; nv; np; nt ] ->
      let nv = int_of_string nv in
      let np = int_of_string np in
      let nt = int_of_string nt in
      let rec parts k acc rest =
        if k = 0 then (List.rev acc, rest)
        else
          match rest with
          | ph :: label :: rest -> (
            match String.split_on_char ' ' (field "part" ph) with
            | [ cost; cert; nd ] ->
              let facts, rest = take (int_of_string nd) rest in
              parts (k - 1)
                ({
                   D.Decomposition.p_label = label;
                   p_deleted =
                     R.Stuple.Set.of_list (List.map fact_of_line facts);
                   p_cost = float_of_hex cost;
                   p_cert = cert_slice_of_token cert;
                 }
                :: acc)
                rest
            | _ -> failwith "bad part")
          | _ -> failwith "bad part"
      in
      let d_parts, rest = parts np [] rest in
      let rec nodes j acc rest =
        if j = 0 then (List.rev acc, rest)
        else
          match rest with
          | nh :: key :: rest -> (
            match String.split_on_char ' ' (field "node" nh) with
            | [ depth; cut; value; slack; par ] ->
              let fn_parent, rest =
                if par = "P" then
                  match rest with
                  | pk :: rest -> (Some pk, rest)
                  | [] -> failwith "bad node"
                else (None, rest)
              in
              nodes (j - 1)
                (( key,
                   {
                     D.Decomposition.fn_parent;
                     fn_depth = int_of_string depth;
                     fn_cut = cut = "1";
                     fn_value = float_of_hex value;
                     fn_slack = float_of_hex slack;
                   } )
                :: acc)
                rest
            | _ -> failwith "bad node")
          | _ -> failwith "bad node"
      in
      let rec trees k acc rest =
        if k = 0 then (List.rev acc, rest)
        else
          match rest with
          | th :: pivot :: rest ->
            let nn = int_of_string (field "tree" th) in
            let ft_nodes, rest = nodes nn [] rest in
            trees (k - 1)
              ({ D.Decomposition.ft_pivot = pivot; ft_nodes } :: acc)
              rest
          | _ -> failwith "bad tree"
      in
      let d_trees, rest = trees nt [] rest in
      let d_structure =
        match tag with
        | "groups" when nt = 0 -> D.Decomposition.Witness_groups
        | "contrib" when nt = 0 -> D.Decomposition.Contributions
        | "forest" -> D.Decomposition.Forest d_trees
        | _ -> failwith "bad decomposition tag"
      in
      ({ D.Decomposition.d_vtuples = nv; d_parts; d_structure }, rest)
    | _ -> failwith "bad decomposition")

let entry_payload (fp, (e : D.Planner.cache_entry)) =
  String.concat "\n"
    ([
       "E";
       "fp " ^ D.Fingerprint.to_hex fp;
       "class " ^ string_of_class e.D.Planner.e_classification;
       "winner " ^ e.D.Planner.e_winner;
       "cost " ^ hex_of_float e.D.Planner.e_cost;
       "cert " ^ string_of_cert e.D.Planner.e_certificate;
       "forest " ^ (if e.D.Planner.e_forest then "1" else "0");
       "threshold " ^ hex_of_float e.D.Planner.e_threshold;
       "split " ^ (if e.D.Planner.e_split then "1" else "0");
       "deleted " ^ string_of_int (R.Stuple.Set.cardinal e.D.Planner.e_deleted);
     ]
    @ List.map R.Stuple.to_string (R.Stuple.Set.elements e.D.Planner.e_deleted)
    @ decomp_lines e.D.Planner.e_decomposition)

let decode_entry payload =
  match String.split_on_char '\n' payload with
  | "E" :: fp :: cls :: winner :: cost :: cert :: forest :: threshold :: split
    :: deleted :: rest ->
    let fp = fp_of_hex (field "fp" fp) in
    let e_classification = class_of_string (field "class" cls) in
    let e_winner = field "winner" winner in
    let e_cost = float_of_hex (field "cost" cost) in
    let e_certificate = cert_of_string (field "cert" cert) in
    let flag name line =
      match field name line with
      | "1" -> true
      | "0" -> false
      | _ -> failwith ("bad " ^ name ^ " flag")
    in
    let e_forest = flag "forest" forest in
    let e_threshold = float_of_hex (field "threshold" threshold) in
    let e_split = flag "split" split in
    let m = int_of_string (field "deleted" deleted) in
    let facts, rest = take m rest in
    let e_deleted = R.Stuple.Set.of_list (List.map fact_of_line facts) in
    let e_decomposition, rest = decode_decomp rest in
    if rest <> [] then failwith "trailing entry lines";
    ( fp,
      {
        D.Planner.e_classification;
        e_winner;
        e_deleted;
        e_cost;
        e_certificate;
        e_forest;
        e_threshold;
        e_split;
        e_decomposition;
      } )
  | _ -> failwith "malformed entry"

(* the baseline delta: the session's live database expressed against its
   base as (gone, added) fact sets — what the fast recovery path applies
   instead of replaying the journal prefix the snapshot covers *)
let baseline_payload (gone, added) =
  String.concat "\n"
    ([
       "B";
       "gone " ^ string_of_int (R.Stuple.Set.cardinal gone);
       "added " ^ string_of_int (R.Stuple.Set.cardinal added);
     ]
    @ List.map R.Stuple.to_string (R.Stuple.Set.elements gone)
    @ List.map R.Stuple.to_string (R.Stuple.Set.elements added))

let decode_baseline payload =
  match String.split_on_char '\n' payload with
  | "B" :: gone :: added :: facts ->
    let ng = int_of_string (field "gone" gone) in
    let na = int_of_string (field "added" added) in
    if List.length facts <> ng + na then failwith "fact count mismatch";
    let gfacts, afacts = take ng facts in
    ( R.Stuple.Set.of_list (List.map fact_of_line gfacts),
      R.Stuple.Set.of_list (List.map fact_of_line afacts) )
  | _ -> failwith "malformed baseline"

(* ---- incremental delta frames ----

   A delta group is one "D" frame followed by [upserts]-many entry
   frames. The "D" frame carries the refreshed coordinates and counter
   block, the removed fingerprints, the full MRU order (authoritative:
   folding re-orders the surviving bindings by it), and the round's
   (deletes, inserts) against the live database. *)

let fps_line key fps =
  String.concat " " (key :: List.map D.Fingerprint.to_hex fps)

let fps_of_line key line =
  field key line |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")
  |> List.map fp_of_hex

let delta_payload (d : delta) =
  String.concat "\n"
    (("D" :: coords_lines d.d_coords)
    @ [
        fps_line "removed" d.d_removed;
        fps_line "order" d.d_order;
        "gone " ^ string_of_int (R.Stuple.Set.cardinal d.d_deletes);
        "added " ^ string_of_int (R.Stuple.Set.cardinal d.d_inserts);
      ]
    @ List.map R.Stuple.to_string (R.Stuple.Set.elements d.d_deletes)
    @ List.map R.Stuple.to_string (R.Stuple.Set.elements d.d_inserts)
    @ [ "upserts " ^ string_of_int (List.length d.d_upserts) ])

(* returns the delta (with [d_upserts = []]) and the number of entry
   frames that follow it *)
let decode_delta payload =
  match String.split_on_char '\n' payload with
  | "D" :: rest -> (
    let d_coords, rest = decode_coords rest in
    match rest with
    | removed :: order :: gone :: added :: rest -> (
      let d_removed = fps_of_line "removed" removed in
      let d_order = fps_of_line "order" order in
      let ng = int_of_string (field "gone" gone) in
      let na = int_of_string (field "added" added) in
      let gfacts, rest = take ng rest in
      let afacts, rest = take na rest in
      match rest with
      | [ ups ] ->
        ( {
            d_coords;
            d_removed;
            d_order;
            d_deletes = R.Stuple.Set.of_list (List.map fact_of_line gfacts);
            d_inserts = R.Stuple.Set.of_list (List.map fact_of_line afacts);
            d_upserts = [];
          },
          int_of_string (field "upserts" ups) )
      | _ -> failwith "malformed delta")
    | _ -> failwith "malformed delta")
  | _ -> failwith "malformed delta"

(* Fold one delta group over the image state. The baseline advances by
   set algebra on the round's delta — deletes first, then inserts, the
   engine's own commit order — so the folded (gone, added) pair is
   exactly what a full write at the delta's moment would have stored. *)
let fold_delta (t : t) (d : delta) =
  let tbl = Hashtbl.create (List.length t.entries + List.length d.d_upserts) in
  List.iter (fun (fp, e) -> Hashtbl.replace tbl fp e) t.entries;
  List.iter (fun fp -> Hashtbl.remove tbl fp) d.d_removed;
  List.iter (fun (fp, e) -> Hashtbl.replace tbl fp e) d.d_upserts;
  let entries =
    List.filter_map
      (fun fp ->
        match Hashtbl.find_opt tbl fp with
        | None -> None
        | Some e -> Some (fp, e))
      d.d_order
  in
  let baseline =
    match t.baseline with
    | None -> None
    | Some (gone, added) ->
      let gone1 =
        R.Stuple.Set.union gone (R.Stuple.Set.diff d.d_deletes added)
      in
      Some
        ( R.Stuple.Set.diff gone1 d.d_inserts,
          R.Stuple.Set.union
            (R.Stuple.Set.diff added d.d_deletes)
            (R.Stuple.Set.diff d.d_inserts gone1) )
  in
  { coords = d.d_coords; baseline; entries }

(* ---- i/o ---- *)

let encode t =
  String.concat ""
    ((magic :: Journal.frame (header_payload t)
     :: (match t.baseline with
        | None -> []
        | Some b -> [ Journal.frame (baseline_payload b) ]))
    @ List.map (fun e -> Journal.frame (entry_payload e)) t.entries)

(* corruption injection ("snapshot.corrupt"): flip one bit of the
   committed snapshot in place — the damage a load must degrade on, not
   crash on *)
let flip_bit path n =
  let data = Journal.read_file path in
  let size = String.length data in
  if size > 0 then begin
    let i = ((n mod size) + size) mod size in
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    let oc =
      open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 path
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_bytes oc b;
        flush oc)
  end

let write path t =
  (* a crash whose allowance covered the whole image commits the rename
     and dies just after *)
  Journal.replace_file "snapshot.write" path (encode t);
  (match D.Failpoint.find "snapshot.corrupt" with
  | Some (D.Failpoint.Corrupt_byte n) -> flip_bit path n
  | _ -> ());
  (* crash window between the snapshot commit and the checkpoint's
     journal mark — arm ["snapshot.rename"] with [raise] to land here *)
  D.Failpoint.hit "snapshot.rename"

let load path =
  if not (Sys.file_exists path) then Error Missing
  else
    match Journal.read_file path with
    | exception Sys_error msg -> Error (Corrupt msg)
    | data ->
      let mlen = String.length magic in
      if String.length data < mlen || String.sub data 0 mlen <> magic then
        Error (Corrupt "bad magic")
      else begin
        (* a payload that fails to decode counts as a bad frame *)
        let decoded decode payload =
          match decode payload with
          | exception (Failure _ | R.Serial.Parse_error (_, _)) -> None
          | x -> Some x
        in
        match Journal.read_frame data mlen with
        | Journal.Torn -> Error (Corrupt "truncated header")
        | Journal.Bad_checksum _ -> Error (Corrupt "header checksum mismatch")
        | Journal.Frame (hp, pos0) -> (
          match decode_header hp with
          | exception Bad_version v -> Error (Version_mismatch v)
          | exception Failure msg -> Error (Corrupt ("header: " ^ msg))
          | coords, has_baseline, count ->
            (* the baseline frame (if announced) sits between the header
               and the entries; damage to it degrades the baseline to
               [None] — the engine then falls back to full journal
               replay — without sacrificing the cache entries behind it
               (unless the frame cannot even be delimited, which loses
               the rest of the image like any torn tail) *)
            let baseline, pos0, base_dropped =
              if not has_baseline then (None, pos0, 0)
              else
                match Journal.read_frame data pos0 with
                | Journal.Torn -> (None, String.length data, 1)
                | Journal.Bad_checksum next -> (None, next, 1)
                | Journal.Frame (payload, next) -> (
                  match decoded decode_baseline payload with
                  | None -> (None, next, 1)
                  | b -> (b, next, 0))
            in
            (* per-entry degradation: a frame that fails its checksum or
               doesn't decode drops that entry alone; a frame that can't
               even be delimited (torn tail, corrupted length) drops the
               rest. [dropped] = header count − entries loaded. *)
            let rec go pos k acc dropped =
              if k = count then (List.rev acc, dropped, pos)
              else
                match Journal.read_frame data pos with
                | Journal.Torn -> (List.rev acc, dropped + (count - k), pos)
                | Journal.Bad_checksum next -> go next (k + 1) acc (dropped + 1)
                | Journal.Frame (payload, next) -> (
                  match decoded decode_entry payload with
                  | None -> go next (k + 1) acc (dropped + 1)
                  | Some pair -> go next (k + 1) (pair :: acc) dropped)
            in
            let entries, dropped, pos1 = go pos0 0 [] 0 in
            (* Incremental delta groups appended after the full image.
               Folding stops at the first bad or torn frame — deltas are
               a strictly ordered suffix, so a clean prefix of them is
               always a consistent (merely older) state; the journal
               replay covers whatever the dropped tail described. A
               group applies only when its "D" frame and all its entry
               frames decode — a torn group is ignored whole. *)
            let next_decoded decode pos =
              match Journal.read_frame data pos with
              | Journal.Frame (payload, next) ->
                Option.map (fun x -> (x, next)) (decoded decode payload)
              | Journal.Bad_checksum _ | Journal.Torn -> None
            in
            let rec ups k acc pos =
              if k = 0 then Some (List.rev acc, pos)
              else
                match next_decoded decode_entry pos with
                | None -> None
                | Some (pair, next) -> ups (k - 1) (pair :: acc) next
            in
            let rec fold_groups t pos =
              match next_decoded decode_delta pos with
              | None -> t
              | Some ((d, nup), next) -> (
                match ups nup [] next with
                | None -> t
                | Some (d_upserts, next') ->
                  fold_groups (fold_delta t { d with d_upserts }) next')
            in
            let t = fold_groups { coords; baseline; entries } pos1 in
            Ok (t, base_dropped + dropped))
      end

(* Append one delta group to the committed image. Appends are not
   atomic — a crash mid-append leaves a torn group — but the base image
   is never rewritten, and [load] stops folding at the first bad frame,
   so the torn tail costs only the freshness it would have added. The
   ["snapshot.append"] failpoint mirrors the journal's torn-tail
   injection: [Crash_after_bytes n] emits [n] bytes of the group and
   raises. *)
let append ?(fsync = false) path (d : delta) =
  Journal.append_file ~fsync "snapshot.append" path
    (String.concat ""
       (Journal.frame (delta_payload d)
       :: List.map (fun e -> Journal.frame (entry_payload e)) d.d_upserts))

let remove path = if Sys.file_exists path then Sys.remove path
