module R = Relational
module D = Deleprop

let magic = "DLPJRNL1"

type record =
  | Apply of R.Stuple.Set.t
  | Delete of R.Stuple.Set.t
  | Insert of R.Stuple.t
  | Delta of { deletes : R.Stuple.Set.t; inserts : R.Stuple.Set.t }

type error =
  | Bad_magic of string
  | Corrupt of { index : int; reason : string }

exception Error of error

let pp_error ppf = function
  | Bad_magic path -> Format.fprintf ppf "%s is not a session journal" path
  | Corrupt { index; reason } -> Format.fprintf ppf "journal record %d corrupt: %s" index reason

(* ---- CRC-32 (IEEE), table-driven ---- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ---- record codec ---- *)

let tag_of = function
  | Apply _ -> 'A'
  | Delete _ -> 'D'
  | Insert _ -> 'I'
  | Delta _ -> 'U'

let payload_of record =
  let facts =
    match record with
    | Apply dd | Delete dd -> List.map R.Stuple.to_string (R.Stuple.Set.elements dd)
    | Insert st -> [ R.Stuple.to_string st ]
    | Delta { deletes; inserts } ->
      (* signed facts, deletes first — the order [apply_delta] replays *)
      List.map (fun st -> "-" ^ R.Stuple.to_string st) (R.Stuple.Set.elements deletes)
      @ List.map (fun st -> "+" ^ R.Stuple.to_string st) (R.Stuple.Set.elements inserts)
  in
  String.concat "\n" (String.make 1 (tag_of record) :: facts)

let fact_of_line line =
  let rel, tuple = R.Serial.fact_of_string line in
  R.Stuple.make rel tuple

let signed_fact_of_line line =
  if String.length line = 0 then failwith "empty signed fact"
  else
    let rest = String.sub line 1 (String.length line - 1) in
    match line.[0] with
    | '-' -> (`Delete, fact_of_line rest)
    | '+' -> (`Insert, fact_of_line rest)
    | c -> failwith (Printf.sprintf "signed fact starts with %C, expected '-'/'+'" c)

let record_of_payload payload =
  match String.split_on_char '\n' payload with
  | tag :: facts -> (
    match tag with
    | "A" -> Apply (R.Stuple.Set.of_list (List.map fact_of_line facts))
    | "D" -> Delete (R.Stuple.Set.of_list (List.map fact_of_line facts))
    | "I" -> (
      match facts with
      | [ f ] -> Insert (fact_of_line f)
      | _ -> failwith "insert record needs exactly one fact")
    | "U" ->
      let deletes, inserts =
        List.fold_left
          (fun (dd, ins) line ->
            match signed_fact_of_line line with
            | `Delete, st -> (R.Stuple.Set.add st dd, ins)
            | `Insert, st -> (dd, R.Stuple.Set.add st ins))
          (R.Stuple.Set.empty, R.Stuple.Set.empty)
          facts
      in
      Delta { deletes; inserts }
    | t -> failwith (Printf.sprintf "unknown record tag %S" t))
  | [] -> failwith "empty payload"

let u32_le n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (n land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 3 ((n lsr 24) land 0xFF);
  Bytes.unsafe_to_string b

let read_u32_le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame payload =
  let crc = Int32.to_int (crc32 payload) land 0xFFFFFFFF in
  u32_le (String.length payload) ^ u32_le crc ^ payload

let encode record = frame (payload_of record)

type frame_read =
  | Frame of string * int
  | Bad_checksum of int
  | Torn

(* The one frame reader both file formats walk with. [verify:false]
   hops frames without checksumming them (a skim never reports
   [Bad_checksum]). *)
let read_frame ?(verify = true) data pos =
  let len = String.length data in
  if len - pos < 8 then Torn
  else
    let plen = read_u32_le data pos in
    if len - pos - 8 < plen then Torn
    else
      let payload = String.sub data (pos + 8) plen in
      let next = pos + 8 + plen in
      if
        verify
        && Int32.to_int (crc32 payload) land 0xFFFFFFFF <> read_u32_le data (pos + 4)
      then Bad_checksum next
      else Frame (payload, next)

(* ---- segments ----

   The active segment lives at [path]; rotation seals it by renaming to
   [path ^ ".seg-<gen>-<seq>"] (seq ascending = chronological within a
   generation) and starting a fresh active file. Every segment written
   by a rotating or rewriting writer opens with a generation marker — a
   CRC-framed ['G'] record — and {!load} reads exactly the sealed
   segments whose filename generation matches the active file's marker,
   in sequence order, then the active itself. {!rewrite} bumps the
   generation in the replacement image {e before} renaming it over
   [path], so a crash between the rename and the stale-segment cleanup
   leaves old sealed segments that the next load provably ignores: the
   multi-file journal is atomic at the single rename, same as the
   single-file one. Pre-rotation journals carry no marker and parse as
   generation 0 with no sealed segments — fully backward compatible. *)

let gen_marker gen = frame (Printf.sprintf "G\n%d" gen)
let seal_name path gen seq = Printf.sprintf "%s.seg-%d-%d" path gen seq

(* every [path ^ ".seg-<gen>-<seq>"] in path's directory, sorted by
   (gen, seq) ascending *)
let sealed_segments path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".seg-" in
  let plen = String.length prefix in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun e ->
           if String.length e > plen && String.sub e 0 plen = prefix then
             match
               String.split_on_char '-' (String.sub e plen (String.length e - plen))
             with
             | [ g; s ] -> (
               match (int_of_string_opt g, int_of_string_opt s) with
               | Some g, Some s -> Some (g, s, Filename.concat dir e)
               | _ -> None)
             | _ -> None
           else None)
    |> List.sort compare

(* best-effort: the first record's generation marker, [None] for legacy
   files (whose first record is data). Integrity is not checked here —
   a corrupt marker surfaces as a typed [Corrupt] during {!load}. *)
let gen_of_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let mlen = String.length magic in
        let flen = in_channel_length ic in
        if flen < mlen + 8 then None
        else begin
          let head = really_input_string ic (mlen + 8) in
          if String.sub head 0 mlen <> magic then None
          else
            let plen = read_u32_le head mlen in
            if plen < 2 || flen < mlen + 8 + plen then None
            else
              let payload = really_input_string ic plen in
              if payload.[0] = 'G' && payload.[1] = '\n' then
                int_of_string_opt (String.sub payload 2 (plen - 2))
              else None
        end)

(* the generation the journal at [path] is currently on: the active
   file's marker, else (active legacy/absent) the newest sealed
   segment's, else 0 *)
let current_gen path =
  match (if Sys.file_exists path then gen_of_file path else None) with
  | Some g -> g
  | None ->
    List.fold_left (fun m (g, _, _) -> max m g) 0 (sealed_segments path)

(* ---- reading ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One segment's frames, as [(records, error option)] — the records
   parsed before any failure always travel back, so [keep_going] can
   salvage the valid prefix of a part-corrupt segment. [allow_torn] (the
   active segment only): an incomplete or checksum-failing final record
   is a torn write, dropped (and truncated off with [repair]); anywhere
   else the same shape is interior corruption. Generation markers are
   consumed, not emitted. [index0] offsets the typed error's record
   index so it is global across segments. *)
let parse_segment ?(repair = false) ~allow_torn ~index0 path =
  let data = read_file path in
  let len = String.length data in
  if len = 0 then ([], None)
  else if
    len < String.length magic || String.sub data 0 (String.length magic) <> magic
  then ([], Some (Bad_magic path))
  else begin
    let truncate_to pos = if repair && allow_torn then Unix.truncate path pos in
    (* a torn write: dropped in the active segment (truncated off with
       [repair]), corruption anywhere else *)
    let torn pos index acc =
      if allow_torn then begin
        truncate_to pos;
        (List.rev acc, None)
      end
      else
        (List.rev acc, Some (Corrupt { index; reason = "torn record in sealed segment" }))
    in
    let rec go pos index acc =
      if pos = len then (List.rev acc, None)
      else
        match read_frame data pos with
        | Torn -> torn pos index acc
        | Bad_checksum next ->
          (* checksum failure on the final record: torn write *)
          if next = len && allow_torn then torn pos index acc
          else (List.rev acc, Some (Corrupt { index; reason = "checksum mismatch" }))
        | Frame (payload, next) -> (
          if String.length payload >= 1 && payload.[0] = 'G' then
            (* generation marker: framing only, never replayed *)
            go next index acc
          else
            match record_of_payload payload with
            | record -> go next (index + 1) (record :: acc)
            | exception (Failure msg | R.Serial.Parse_error (_, msg)) ->
              (* a checksummed payload that does not decode is corruption
                 whatever its position — the bytes were written whole *)
              (List.rev acc, Some (Corrupt { index; reason = msg })))
    in
    go (String.length magic) index0 []
  end

(* structural record count of one segment: frame hops only — no CRC
   checks, no payload decoding — with generation markers excluded.
   [None] when the file is unreadable or not frame-delimitable end to
   end, in which case the caller must parse it properly. *)
let count_segment_records path =
  match read_file path with
  | exception Sys_error _ -> None
  | data ->
    let len = String.length data in
    let mlen = String.length magic in
    if len < mlen || String.sub data 0 mlen <> magic then None
    else begin
      let rec go pos n =
        if pos = len then Some n
        else
          match read_frame ~verify:false data pos with
          | Frame (payload, next) ->
            let is_marker = String.length payload >= 1 && payload.[0] = 'G' in
            go next (if is_marker then n else n + 1)
          | Bad_checksum _ | Torn -> None
      in
      go mlen 0
    end

type tail = {
  tail : record list;
  total : int;
  covered : string list;
}

(* The one segment walk: current-generation sealed segments in sequence
   order, then the active file, keeping the records with global index ≥
   [position]. With [position > 0], sealed segments lying entirely
   inside the first [position] records are skipped after a structural
   skim-count (their paths come back in [covered] so the caller can
   reclaim them once the install sticks). Skimming checks framing only —
   a bit flip inside a covered segment is invisible here, which is sound
   exactly because the caller replaces those records with the
   snapshot's baseline and never replays them. Every other segment
   (always including the active one) parses and checksums in full; at
   [position = 0] nothing is skimmed. [keep_going]: a typed error
   mid-stream salvages the valid prefix instead of failing the walk —
   every record before the corruption is kept, everything at and after
   it is dropped (later segments included: replaying past a hole would
   desynchronize the state). *)
let walk ~repair ~keep_going ~position path =
  let gen = current_gen path in
  let sealed =
    List.filter_map
      (fun (g, _, p) -> if g = gen then Some (p, false) else None)
      (sealed_segments path)
  in
  let files = sealed @ if Sys.file_exists path then [ (path, true) ] else [] in
  let result before acc covered =
    { tail = List.concat (List.rev acc); total = before; covered = List.rev covered }
  in
  let rec go before acc covered = function
    | [] -> Ok (result before acc covered)
    | (p, final) :: rest -> (
      let skim =
        if final || position = 0 then None
        else
          match count_segment_records p with
          | Some n when before + n <= position -> Some n
          | _ -> None
      in
      match skim with
      | Some n -> go (before + n) acc (p :: covered) rest
      | None -> (
        let records, err = parse_segment ~repair ~allow_torn:final ~index0:before p in
        let n = List.length records in
        let keep =
          if position = 0 then records
          else List.filteri (fun i _ -> before + i >= position) records
        in
        match err with
        | None -> go (before + n) (keep :: acc) covered rest
        | Some _ when keep_going -> Ok (result (before + n) (keep :: acc) covered)
        | Some e -> Error e))
  in
  go 0 [] [] files

let load_from ?(repair = false) ~position path =
  walk ~repair ~keep_going:false ~position path

let load ?(repair = false) ?(keep_going = false) path =
  Result.map (fun r -> r.tail) (walk ~repair ~keep_going ~position:0 path)

(* ---- writing ---- *)

type writer = {
  path : string;
  fsync : bool;
  segment_bytes : int option;
  mutable gen : int;
  mutable seq : int;  (* the next rotation seals as (gen, seq) *)
  mutable oc : out_channel;
}

let fsync_channel oc = Unix.fsync (Unix.descr_of_out_channel oc)

let flush_channel ~fsync oc =
  flush oc;
  if fsync then fsync_channel oc

(* The one failpoint-guarded write. [emit k] writes (and flushes) the
   first [k] of [len] bytes; [commit] is what makes a whole write
   visible (a rename). Under [Crash_after_bytes n] only [min n len]
   bytes are emitted, [commit] runs iff that was all of them, and the
   write dies with [Injected site]; any other armed action is [hit]
   before the write. *)
let write_guarded ?(commit = ignore) site ~len emit =
  match D.Failpoint.find site with
  | Some (D.Failpoint.Crash_after_bytes n) ->
    let k = min n len in
    emit k;
    if k = len then commit ();
    raise (D.Failpoint.Injected site)
  | fp ->
    if fp <> None then D.Failpoint.hit site;
    emit len;
    commit ()

(* [k] bytes of [data] to a fresh channel on [path], flushed — and
   fsynced when [sync] and they are all of [data] *)
let write_prefix ~flags ~sync path data k =
  let oc = open_out_gen (Open_wronly :: Open_creat :: Open_binary :: flags) 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_substring oc data 0 k;
      flush oc;
      if sync && k = String.length data then fsync_channel oc)

let replace_file site path data =
  let tmp = path ^ ".tmp" in
  write_guarded site ~len:(String.length data)
    ~commit:(fun () -> Sys.rename tmp path)
    (write_prefix ~flags:[ Open_trunc ] ~sync:true tmp data)

let append_file ?(fsync = false) site path data =
  write_guarded site ~len:(String.length data)
    (write_prefix ~flags:[ Open_append ] ~sync:fsync path data)

let open_channel ~fsync ~gen path =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path in
  if out_channel_length oc = 0 then begin
    output_string oc magic;
    output_string oc (gen_marker gen);
    flush_channel ~fsync oc
  end;
  oc

let open_writer ?(fsync = false) ?segment_bytes path =
  (match segment_bytes with
  | Some n when n <= 0 ->
    invalid_arg "Journal.open_writer: segment_bytes must be positive"
  | _ -> ());
  let gen = current_gen path in
  let seq =
    1
    + List.fold_left
        (fun m (g, s, _) -> if g = gen then max m s else m)
        0 (sealed_segments path)
  in
  { path; fsync; segment_bytes; gen; seq; oc = open_channel ~fsync ~gen path }

(* seal the active segment once it outgrows the bound: rename (atomic),
   then start a fresh active of the same generation. A crash between the
   two leaves no active file — {!load} and {!open_writer} adopt the
   newest sealed generation, so nothing is lost. Rotation runs after a
   fully flushed append, which is why a sealed segment can never carry a
   torn tail of its own. *)
let maybe_rotate w =
  match w.segment_bytes with
  | None -> ()
  | Some limit ->
    if pos_out w.oc >= limit then begin
      close_out_noerr w.oc;
      Sys.rename w.path (seal_name w.path w.gen w.seq);
      w.seq <- w.seq + 1;
      w.oc <- open_channel ~fsync:w.fsync ~gen:w.gen w.path
    end

let append w record =
  let bytes = encode record in
  write_guarded "journal.append" ~len:(String.length bytes) (fun k ->
      output_substring w.oc bytes 0 k;
      flush w.oc);
  if w.fsync then fsync_channel w.oc;
  maybe_rotate w

let close_writer w = close_out_noerr w.oc
let generation w = w.gen

let rewrite path records =
  let sealed = sealed_segments path in
  let gen = current_gen path + 1 in
  (* a crash whose allowance covered the whole image commits the rename
     and dies just after: stale sealed segments survive the simulated
     crash, and the generation bump makes the next load ignore them *)
  replace_file "journal.rewrite" path
    (String.concat "" (magic :: gen_marker gen :: List.map encode records));
  (* cleanup after the commit point: crash-safe, see the gen bump *)
  List.iter (fun (_, _, p) -> try Sys.remove p with Sys_error _ -> ()) sealed

let remove path =
  if Sys.file_exists path then Sys.remove path;
  List.iter
    (fun (_, _, p) -> try Sys.remove p with Sys_error _ -> ())
    (sealed_segments path)
