module R = Relational
module Bitset = Setcover.Bitset

(* union-find with union-by-min (the root is the smallest member) and
   path compression *)
module Uf = Setcover.Unionfind

(* ---- component labels ----

   Components of the stuple↔vtuple incidence graph: two source tuples are
   connected iff some witness contains both. A view tuple's witness lies
   entirely inside one component, so solving per component and unioning
   the answers is exact for both feasibility and cost. Components are
   labelled canonically — by first appearance in ascending live sid
   order — so any two membership-equal labellings are bit-identical, in
   particular one patched by a transition below and a scratch [build].
   Dead slots carry -1, so labels depend only on the live membership:
   that is why compaction changes no label. *)

type partition = {
  comp_of_sid : int array;
  comp_of_vid : int array;
  num_components : int;
}

type memo = {
  m_fp : Fingerprint.t;
  m_bad : int array;  (* the solved ΔV as parent vids, ascending, all live *)
}

type t = {
  partition : partition;
  sids_of : int array array;  (* component -> live member sids, ascending *)
  vids_of : int array array;  (* component -> live member vids, ascending *)
  memo : memo option array;   (* component -> last solve memo *)
  clean : bool array;
      (* component -> its cached answer is still valid: no delta touched
         it since the last planner round solved (or a seed restricted)
         it. Transitions allocate a fresh array; only [mark_clean]
         writes in place. *)
}

let partition t = t.partition
let num_components t = t.partition.num_components
let comp_of_sid t sid = t.partition.comp_of_sid.(sid)
let comp_of_vid t vid = t.partition.comp_of_vid.(vid)
let sids_of t c = t.sids_of.(c)
let vids_of t c = t.vids_of.(c)

let union_row parent w =
  if Array.length w > 1 then begin
    let s0 = w.(0) in
    Array.iter (fun sid -> Uf.union parent s0 sid) w
  end

(* one count/fill pass per axis — the only full roster sweep, paid by
   [build] alone *)
let bucket nc comp_of =
  let counts = Array.make nc 0 in
  Array.iter (fun c -> if c >= 0 then counts.(c) <- counts.(c) + 1) comp_of;
  let rosters = Array.map (fun n -> Array.make n 0) counts in
  let fill = Array.make nc 0 in
  Array.iteri
    (fun id c ->
      if c >= 0 then begin
        rosters.(c).(fill.(c)) <- id;
        fill.(c) <- fill.(c) + 1
      end)
    comp_of;
  rosters

let build (a : Arena.t) =
  let ns = Arena.num_stuples a in
  let parent = Uf.create ns in
  Array.iteri
    (fun vid w -> if not (Bitset.mem a.Arena.dead_v vid) then union_row parent w)
    a.Arena.witness;
  (* scanning ascending live sid, each root gets the next fresh label on
     first sight; [comp_of_sid] doubles as the root -> label table, since
     union-by-min visits the root first and a live class's root is live
     (a live row holds no dead slot) *)
  let comp_of_sid = Array.make ns (-1) in
  let next = ref 0 in
  for sid = 0 to ns - 1 do
    if not (Bitset.mem a.Arena.dead_s sid) then begin
      let r = Uf.find parent sid in
      if comp_of_sid.(r) = -1 then begin
        comp_of_sid.(r) <- !next;
        incr next
      end;
      comp_of_sid.(sid) <- comp_of_sid.(r)
    end
  done;
  let comp_of_vid =
    Array.mapi
      (fun vid w ->
        if Bitset.mem a.Arena.dead_v vid || Array.length w = 0 then -1
        else comp_of_sid.(w.(0)))
      a.Arena.witness
  in
  let nc = !next in
  {
    partition = { comp_of_sid; comp_of_vid; num_components = nc };
    sids_of = bucket nc comp_of_sid;
    vids_of = bucket nc comp_of_vid;
    memo = Array.make nc None;
    clean = Array.make nc false;
  }

let delete t ~(before : Arena.t) ~dd (a' : Arena.t) =
  (* deletions only split components: no witness row gains members, so a
     component loses its dead tuples and possibly falls apart, while a
     component holding no deleted tuple keeps its membership, roster,
     memo and clean bit verbatim under its new label. Only the affected
     components' surviving rows re-union, and only their members
     re-bucket (their fragments start dirty). [a'] shares [before]'s
     physical arrays, so the id correspondence is the identity. *)
  if not (before.Arena.stuples == a'.Arena.stuples) then
    invalid_arg "Component_index.delete: arena not from Arena.delete before";
  let p = t.partition in
  let ns = Arena.num_stuples before in
  let affected = Array.make p.num_components false in
  R.Stuple.Set.iter
    (fun st -> affected.(p.comp_of_sid.(Arena.stuple_id before st)) <- true)
    dd;
  let parent = Uf.create ns in
  Array.iteri
    (fun c roster ->
      if affected.(c) then
        Array.iter
          (fun vid ->
            if not (Bitset.mem a'.Arena.dead_v vid) then
              union_row parent a'.Arena.witness.(vid))
          roster)
    t.vids_of;
  (* the label scan walks ascending live sids exactly like [build]: an
     unaffected component is labelled wholesale on first sight, an
     affected one per fragment root *)
  let label_of_old = Array.make p.num_components (-1) in
  let comp_of_sid = Array.make ns (-1) in
  let next = ref 0 in
  for sid = 0 to ns - 1 do
    if not (Bitset.mem a'.Arena.dead_s sid) then begin
      let c = p.comp_of_sid.(sid) in
      if affected.(c) then begin
        let r = Uf.find parent sid in
        if comp_of_sid.(r) = -1 then begin
          comp_of_sid.(r) <- !next;
          incr next
        end;
        comp_of_sid.(sid) <- comp_of_sid.(r)
      end
      else begin
        if label_of_old.(c) = -1 then begin
          label_of_old.(c) <- !next;
          incr next
        end;
        comp_of_sid.(sid) <- label_of_old.(c)
      end
    end
  done;
  let nc' = !next in
  let comp_of_vid =
    Array.map (fun c -> if c < 0 || affected.(c) then -1 else label_of_old.(c)) p.comp_of_vid
  in
  let sids_of = Array.make nc' [||] in
  let vids_of = Array.make nc' [||] in
  let memo = Array.make nc' None in
  let clean = Array.make nc' false in
  (* affected components shatter: walk their old rosters descending,
     consing live survivors onto their fragment's list keeps each
     fragment ascending. Fragment labels never collide with the
     unaffected labels (labels partition the live slots). *)
  let frag_s = Array.make nc' [] in
  let frag_v = Array.make nc' [] in
  Array.iteri
    (fun c roster ->
      if not affected.(c) then begin
        let c' = label_of_old.(c) in
        sids_of.(c') <- roster;
        vids_of.(c') <- t.vids_of.(c);
        memo.(c') <- t.memo.(c);
        clean.(c') <- t.clean.(c)
      end
      else begin
        for i = Array.length roster - 1 downto 0 do
          let sid = roster.(i) in
          if not (Bitset.mem a'.Arena.dead_s sid) then
            frag_s.(comp_of_sid.(sid)) <- sid :: frag_s.(comp_of_sid.(sid))
        done;
        let vroster = t.vids_of.(c) in
        for i = Array.length vroster - 1 downto 0 do
          let vid = vroster.(i) in
          if not (Bitset.mem a'.Arena.dead_v vid) then begin
            (* a live row holds only live slots, so its first names the
               fragment *)
            let c' = comp_of_sid.(a'.Arena.witness.(vid).(0)) in
            comp_of_vid.(vid) <- c';
            frag_v.(c') <- vid :: frag_v.(c')
          end
        done
      end)
    t.sids_of;
  for c' = 0 to nc' - 1 do
    match frag_s.(c') with
    | [] -> ()
    | l ->
      sids_of.(c') <- Array.of_list l;
      vids_of.(c') <- Array.of_list frag_v.(c')
  done;
  { partition = { comp_of_sid; comp_of_vid; num_components = nc' };
    sids_of; vids_of; memo; clean }

(* resurrect path: the insertion flipped dead bits back in place, so ids
   are stable and the gained view tuples are exactly the newly-live
   vids. Insertions only merge components (every old witness row
   survives intact), so each old component enters the union-find through
   its smallest member and only the gained rows — the only rows that can
   bridge components — are unioned in. The label scan then maps each old
   component wholesale to its new label ([target]); a new label is
   [changed] if several old components landed on it or a newly-live slot
   joined it — those re-gather, sort and start dirty, the rest share
   rosters, memos and clean bits. *)
let resurrect t ~(before : Arena.t) (a' : Arena.t) =
  let p = t.partition in
  let ns = Arena.num_stuples before and nc = p.num_components in
  let rep sid =
    if Bitset.mem before.Arena.dead_s sid then sid
    else t.sids_of.(p.comp_of_sid.(sid)).(0)
  in
  let parent = Uf.create ns in
  Bitset.iter_diff
    (fun vid ->
      let w = a'.Arena.witness.(vid) in
      if Array.length w > 1 then begin
        let r0 = rep w.(0) in
        Array.iter (fun sid -> Uf.union parent r0 (rep sid)) w
      end)
    before.Arena.dead_v a'.Arena.dead_v;
  (* an old component is first seen at its smallest member, which is its
     own representative; a newly-live slot is its own too *)
  let target = Array.make nc (-1) in
  let comp_of_sid = Array.make ns (-1) in
  let next = ref 0 in
  for sid = 0 to ns - 1 do
    if not (Bitset.mem a'.Arena.dead_s sid) then begin
      let c = if Bitset.mem before.Arena.dead_s sid then -1 else p.comp_of_sid.(sid) in
      if c >= 0 && target.(c) >= 0 then comp_of_sid.(sid) <- target.(c)
      else begin
        let r = Uf.find parent sid in
        if comp_of_sid.(r) = -1 then begin
          comp_of_sid.(r) <- !next;
          incr next
        end;
        comp_of_sid.(sid) <- comp_of_sid.(r);
        if c >= 0 then target.(c) <- comp_of_sid.(sid)
      end
    end
  done;
  let nc' = !next in
  let got = Array.make nc' 0 in
  Array.iter (fun c' -> got.(c') <- got.(c') + 1) target;
  let fresh = Array.make nc' false in
  Bitset.iter_diff
    (fun sid -> fresh.(comp_of_sid.(sid)) <- true)
    before.Arena.dead_s a'.Arena.dead_s;
  let comp_of_vid = Array.map (fun c -> if c < 0 then -1 else target.(c)) p.comp_of_vid in
  Bitset.iter_diff
    (fun vid ->
      let w = a'.Arena.witness.(vid) in
      if Array.length w > 0 then begin
        let c' = comp_of_sid.(w.(0)) in
        comp_of_vid.(vid) <- c';
        fresh.(c') <- true
      end)
    before.Arena.dead_v a'.Arena.dead_v;
  let changed c' = got.(c') > 1 || fresh.(c') in
  let sids_of = Array.make nc' [||] in
  let vids_of = Array.make nc' [||] in
  let memo = Array.make nc' None in
  let clean = Array.make nc' false in
  let frag_s = Array.make nc' [] in
  let frag_v = Array.make nc' [] in
  Array.iteri
    (fun c roster ->
      let c' = target.(c) in
      if not (changed c') then begin
        sids_of.(c') <- roster;
        vids_of.(c') <- t.vids_of.(c);
        memo.(c') <- t.memo.(c);
        clean.(c') <- t.clean.(c)
      end
      else begin
        Array.iter (fun sid -> frag_s.(c') <- sid :: frag_s.(c')) roster;
        Array.iter (fun vid -> frag_v.(c') <- vid :: frag_v.(c')) t.vids_of.(c)
      end)
    t.sids_of;
  Bitset.iter_diff
    (fun sid ->
      let c' = comp_of_sid.(sid) in
      if changed c' then frag_s.(c') <- sid :: frag_s.(c'))
    before.Arena.dead_s a'.Arena.dead_s;
  Bitset.iter_diff
    (fun vid ->
      let c' = comp_of_vid.(vid) in
      if c' >= 0 && changed c' then frag_v.(c') <- vid :: frag_v.(c'))
    before.Arena.dead_v a'.Arena.dead_v;
  for c' = 0 to nc' - 1 do
    if changed c' then begin
      let s = Array.of_list frag_s.(c') in
      let v = Array.of_list frag_v.(c') in
      Array.sort Int.compare s;
      Array.sort Int.compare v;
      sids_of.(c') <- s;
      vids_of.(c') <- v
    end
  done;
  { partition = { comp_of_sid; comp_of_vid; num_components = nc' };
    sids_of; vids_of; memo; clean }

let insert t ~(before : Arena.t) (a' : Arena.t) =
  if before.Arena.stuples == a'.Arena.stuples then resurrect t ~before a'
  else begin
    (* merge path: the extend merged sorted runs, so every id may have
       moved — relabel from scratch (memos drop) and walk the sorted-run
       correspondence (live old slots in order against the merged run)
       for the clean bits: a surviving slot carries its old component's
       bit, an inserted one dirties its component — which covers every
       component the insert merged, since they all share its label *)
    let t' = build a' in
    Array.fill t'.clean 0 (Array.length t'.clean) true;
    let ns = Arena.num_stuples before in
    let i = ref 0 in
    for sid' = 0 to Arena.num_stuples a' - 1 do
      while !i < ns && Bitset.mem before.Arena.dead_s !i do incr i done;
      let c' = t'.partition.comp_of_sid.(sid') in
      if !i < ns && R.Stuple.equal before.Arena.stuples.(!i) a'.Arena.stuples.(sid')
      then begin
        if not t.clean.(t.partition.comp_of_sid.(!i)) then t'.clean.(c') <- false;
        incr i
      end
      else t'.clean.(c') <- false
    done;
    t'
  end

let compact t ~(before : Arena.t) =
  if not (Arena.tombstoned before) then t
  else begin
    let p = t.partition in
    (* [r.(id)] is the id's slot in the compacted arena (-1 if dead); the
       live labels gather through the same ranks unchanged — canonical
       labels already skip dead slots, so component-keyed state (clean
       bits, memos, the shard cache) survives without remapping *)
    let rank dead comp_of live =
      let r = Array.make (Array.length comp_of) (-1) in
      let gathered = Array.make live (-1) in
      let k = ref 0 in
      Array.iteri
        (fun id c ->
          if not (Bitset.mem dead id) then begin
            r.(id) <- !k;
            gathered.(!k) <- c;
            incr k
          end)
        comp_of;
      (r, gathered)
    in
    let rs, comp_of_sid =
      rank before.Arena.dead_s p.comp_of_sid (Arena.live_stuples before)
    in
    let rv, comp_of_vid =
      rank before.Arena.dead_v p.comp_of_vid (Arena.live_vtuples before)
    in
    (* rosters hold live ids only and live ranks are monotone, so the
       remapped rosters stay ascending *)
    let remap r roster = Array.map (fun id -> r.(id)) roster in
    {
      partition = { comp_of_sid; comp_of_vid; num_components = p.num_components };
      sids_of = Array.map (remap rs) t.sids_of;
      vids_of = Array.map (remap rv) t.vids_of;
      memo =
        Array.map
          (Option.map (fun m -> { m with m_bad = remap rv m.m_bad }))
          t.memo;
      clean = Array.copy t.clean;
    }
  end

let active t (a : Arena.t) =
  let p = t.partition in
  let seen = Hashtbl.create 16 in
  Bitset.iter
    (fun vid ->
      let c = p.comp_of_vid.(vid) in
      if not (Hashtbl.mem seen c) then Hashtbl.add seen c ())
    a.Arena.bad;
  let comps = List.sort Int.compare (Hashtbl.fold (fun c () acc -> c :: acc) seen []) in
  Array.of_list
    (List.map
       (fun c -> { Arena.p_component = c; p_sids = t.sids_of.(c); p_vids = t.vids_of.(c) })
       comps)

let record_memo t ~component ~fp ~bad = t.memo.(component) <- Some { m_fp = fp; m_bad = bad }

let memo t c =
  match t.memo.(c) with None -> None | Some m -> Some (m.m_fp, m.m_bad)

let clean t c = t.clean.(c)
let mark_clean t c = t.clean.(c) <- true

let dirty t =
  List.filter (fun c -> not t.clean.(c)) (List.init (Array.length t.clean) Fun.id)

let restore_dirty t ids =
  let clean = Array.make (Array.length t.clean) true in
  List.iter (fun c -> if c >= 0 && c < Array.length clean then clean.(c) <- false) ids;
  { t with clean; memo = Array.copy t.memo }
