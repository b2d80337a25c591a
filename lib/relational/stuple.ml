type t = { rel : string; tuple : Tuple.t }

let make rel tuple = { rel; tuple }

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else Tuple.compare a.tuple b.tuple

let equal a b = compare a b = 0

let pp ppf t = Format.fprintf ppf "%s%a" t.rel Tuple.pp t.tuple
(* byte-identical to [pp], without a formatter *)
let to_string t = t.rel ^ Tuple.to_string t.tuple

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
