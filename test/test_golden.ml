(* Golden bytes for the durable formats. Fixed values — a snapshot image
   with a baseline and one entry per decomposition structure, one delta
   group, and a journal holding each record kind — are encoded by the
   production writers and compared, frame by frame, with checked-in
   payloads and CRC-32s. The framing (u32 LE length, u32 LE CRC-32,
   payload) is re-derived here rather than taken from [Journal], so a
   change to a codec or to the shared frame code shows up as a diff
   against these literals. *)

open Util
module R = Relational
module D = Deleprop
module S = Engine.Snapshot
module J = Engine.Journal

let u32_le = Test_resilience.u32_le
let read_u32_le = Test_resilience.read_u32_le

(* the file's frames as (crc, payload), after checking the magic *)
let split_frames tag ~magic data =
  let mlen = String.length magic in
  Alcotest.(check string) (tag ^ ": magic") magic (String.sub data 0 mlen);
  let rec go pos acc =
    if pos = String.length data then List.rev acc
    else
      let plen = read_u32_le data pos in
      let crc = read_u32_le data (pos + 4) in
      go (pos + 8 + plen) ((crc, String.sub data (pos + 8) plen) :: acc)
  in
  go mlen []

let lines = String.concat "\n"

let check_golden tag ~magic expected data =
  let frames = split_frames tag ~magic data in
  Alcotest.(check (list string))
    (tag ^ ": payloads") (List.map snd expected) (List.map snd frames);
  Alcotest.(check (list int))
    (tag ^ ": checksums") (List.map fst expected) (List.map fst frames);
  Alcotest.(check string)
    (tag ^ ": bytes")
    (String.concat ""
       (magic
       :: List.map
            (fun (crc, p) -> u32_le (String.length p) ^ u32_le crc ^ p)
            expected))
    data

let with_file f =
  let path = Filename.temp_file "deleprop_golden" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      J.remove path;
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f path)

let read_whole = Test_resilience.read_whole

let fp hex =
  match D.Fingerprint.of_hex hex with
  | Some f -> f
  | None -> Alcotest.fail ("bad fingerprint hex: " ^ hex)

(* ---- expected frames ---- *)

let expected_snapshot =
  [
    ( 0x867b84ad,
      lines
        [
          "H";
          "version 3";
          "position 7";
          "generation 2";
          "arena 00000000deadbeef";
          "components 3";
          "dirty 0 2";
          "hits 11";
          "misses 4";
          "evictions 1";
          "bucket 5";
          "splices 3";
          "splices_exact 1";
          "splices_forest 1";
          "splices_approx 1";
          "baseline 1";
          "entries 3";
        ] );
    ( 0x103e4dd6,
      lines
        [
          "B";
          "gone 1";
          "added 2";
          "T2(J1, X, W1)";
          "T1(A, J1)";
          "T1(B, J2)";
        ] );
    ( 0x3fa4c169,
      lines
        [
          "E";
          "fp 0123456789abcdef";
          "class small";
          "winner brute";
          "cost 3fd3333333333334";
          "cert exact";
          "forest 0";
          "threshold 400921fb54442d18";
          "split 1";
          "deleted 2";
          "T1(A, J1)";
          "T2(J1, X, W1)";
          "decomp groups 4 1 0";
          "part 3fd3333333333334 exact 1";
          "g0";
          "T1(A, J1)";
        ] );
    ( 0xd2174b50,
      lines
        [
          "E";
          "fp fedcba9876543210";
          "class approx";
          "winner primal-dual";
          "cost 01a56e1fc2f8f359";
          "cert composite 3 3fd5555555555555";
          "forest 1";
          "threshold 7ff0000000000000";
          "split 0";
          "deleted 0";
          "decomp contrib 9 2 0";
          "part 01a56e1fc2f8f359 ratio:4018000000000000 0";
          "c A J1";
          "part 0000000000000000 heuristic 1";
          "c B J2";
          "T2(J1, X, W1)";
        ] );
    ( 0x2c6e43cc,
      lines
        [
          "E";
          "fp 00000000000000ff";
          "class forest";
          "winner forest-dp";
          "cost 4045000000000000";
          "cert dual 4044c00000000000";
          "forest 1";
          "threshold 4003988e1409212e";
          "split 0";
          "deleted 1";
          "T1(B, J2)";
          "decomp forest 6 1 1";
          "part 4045000000000000 exact 1";
          "t0";
          "T1(B, J2)";
          "tree 2";
          "T1(B, J2)";
          "node 0 1 4045000000000000 0000000000000000 -";
          "T1(B, J2)";
          "node 1 0 3fd0000000000000 3ff8000000000000 P";
          "T2(J1, X, W1)";
          "T1(B, J2)";
        ] );
  ]

let expected_delta =
  [
    ( 0xad86ead4,
      lines
        [
          "D";
          "position 8";
          "generation 2";
          "arena 00000000deadbe01";
          "components 4";
          "dirty 1 3";
          "hits 12";
          "misses 4";
          "evictions 1";
          "bucket 5";
          "splices 3";
          "splices_exact 1";
          "splices_forest 1";
          "splices_approx 1";
          "removed fedcba9876543210";
          "order 0123456789abcdef 00000000000000ff";
          "gone 1";
          "added 1";
          "T1(A, J1)";
          "T1(C, J3)";
          "upserts 1";
        ] );
    ( 0xaa8babaa,
      lines
        [
          "E";
          "fp 0123456789abcdef";
          "class small";
          "winner brute";
          "cost 4023000000000000";
          "cert exact";
          "forest 0";
          "threshold 400921fb54442d18";
          "split 1";
          "deleted 2";
          "T1(A, J1)";
          "T2(J1, X, W1)";
          "decomp groups 4 1 0";
          "part 3fd3333333333334 exact 1";
          "g0";
          "T1(A, J1)";
        ] );
  ]

let expected_journal =
  [
    ( 0x56a29a71,
      lines
        [
          "G";
          "0";
        ] );
    ( 0xdec555b5,
      lines
        [
          "A";
          "T1(A, J1)";
          "T2(J1, X, W1)";
        ] );
    ( 0xb4e37d7d,
      lines
        [
          "D";
          "T1(B, J2)";
        ] );
    ( 0xad30d29e,
      lines
        [
          "I";
          "T1(C, J3)";
        ] );
    ( 0xadbd7c8b,
      lines
        [
          "U";
          "-T2(J1, X, W1)";
          "+T2(J1, Y, W2)";
        ] );
  ]

(* ---- fixtures ---- *)

let golden_delta () =
  let base = Test_rewarm.sample_snapshot () in
  let e1 = List.assoc (fp "0123456789abcdef") base.S.entries in
  {
    S.d_coords =
      {
        S.position = 8;
        generation = 2;
        arena_fp = fp "00000000deadbe01";
        components = 4;
        dirty = [ 1; 3 ];
        stats = { base.S.coords.S.stats with D.Planner.s_hits = 12 };
      };
    d_removed = [ fp "fedcba9876543210" ];
    d_order = [ fp "0123456789abcdef"; fp "00000000000000ff" ];
    d_deletes = R.Stuple.Set.singleton (st "T1" [ "A"; "J1" ]);
    d_inserts = R.Stuple.Set.singleton (st "T1" [ "C"; "J3" ]);
    d_upserts =
      [ (fp "0123456789abcdef", { e1 with D.Planner.e_cost = 9.5 }) ];
  }

let golden_records () =
  [
    J.Apply
      (R.Stuple.Set.of_list [ st "T1" [ "A"; "J1" ]; st "T2" [ "J1"; "X"; "W1" ] ]);
    J.Delete (R.Stuple.Set.singleton (st "T1" [ "B"; "J2" ]));
    J.Insert (st "T1" [ "C"; "J3" ]);
    J.Delta
      {
        deletes = R.Stuple.Set.singleton (st "T2" [ "J1"; "X"; "W1" ]);
        inserts = R.Stuple.Set.singleton (st "T2" [ "J1"; "Y"; "W2" ]);
      };
  ]

let snapshot_bytes () =
  with_file (fun path ->
      S.write path (Test_rewarm.sample_snapshot ());
      read_whole path)

(* a delta group appended to an empty file: the group's bytes alone *)
let delta_bytes () =
  with_file (fun path ->
      S.append path (golden_delta ());
      read_whole path)

let journal_bytes () =
  with_file (fun path ->
      J.remove path;
      let w = J.open_writer path in
      List.iter (J.append w) (golden_records ());
      J.close_writer w;
      read_whole path)

let test_snapshot_golden () =
  check_golden "snapshot" ~magic:"DLPSNAP1" expected_snapshot
    (snapshot_bytes ())

let test_delta_golden () =
  check_golden "delta group" ~magic:"" expected_delta (delta_bytes ())

let test_journal_golden () =
  check_golden "journal" ~magic:"DLPJRNL1" expected_journal (journal_bytes ())

let suite =
  [
    Alcotest.test_case "snapshot image bytes are pinned" `Quick
      test_snapshot_golden;
    Alcotest.test_case "snapshot delta group bytes are pinned" `Quick
      test_delta_golden;
    Alcotest.test_case "journal record bytes are pinned" `Quick
      test_journal_golden;
  ]
