(** Union-find over dense integer ids, with union-by-min and path
    compression: the root of a class is always its {e smallest} member.

    That invariant is what the canonical component labels of
    [Component_index] rely on — scanning ids in ascending order visits
    each root before any other member of its class, so "first
    appearance" labeling needs no second pass and two membership-equal
    partitions come out structurally equal. *)

type t = int array

(** [create n] — [n] singleton classes [{0}, ..., {n-1}]. *)
val create : int -> t

(** Representative (smallest member) of [i]'s class; compresses the
    path. *)
val find : t -> int -> int

(** Merge the classes of [i] and [j]; the smaller representative wins. *)
val union : t -> int -> int -> unit
