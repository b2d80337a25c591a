(* The label-array shard enumeration, moved verbatim from
   lib/core/arena.ml: [Component_index.active] must return the same
   proto-shards, bit for bit, off its maintained rosters. Without
   [~partition], the labels come from a scratch [Component_index.build]. *)

open Deleprop
open Arena
module Bitset = Setcover.Bitset

let active_components ?partition:part (a : t) =
  let p : Component_index.partition =
    match part with
    | Some p -> p
    | None -> Component_index.partition (Component_index.build a)
  in
  (* only components with a bad view tuple need solving *)
  let active = Array.make p.Component_index.num_components false in
  Bitset.iter (fun vid -> active.(p.comp_of_vid.(vid)) <- true) a.bad;
  let sids_of = Array.make p.num_components [] in
  for sid = num_stuples a - 1 downto 0 do
    let c = p.comp_of_sid.(sid) in
    if c >= 0 && active.(c) then sids_of.(c) <- sid :: sids_of.(c)
  done;
  let vids_of = Array.make p.num_components [] in
  for vid = num_vtuples a - 1 downto 0 do
    let c = p.comp_of_vid.(vid) in
    if c >= 0 && active.(c) then vids_of.(c) <- vid :: vids_of.(c)
  done;
  let protos = ref [] in
  for c = p.num_components - 1 downto 0 do
    if active.(c) then
      protos :=
        { p_component = c; p_sids = Array.of_list sids_of.(c);
          p_vids = Array.of_list vids_of.(c) }
        :: !protos
  done;
  Array.of_list !protos

let shatter ?partition:part (a : t) =
  Array.map (materialize a) (active_components ?partition:part a)
