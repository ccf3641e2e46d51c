(** The argmin of the normal run queues, kept as a tournament tree.

    Each leaf is one queue, keyed by (tracked load, queue length); a
    tie goes to the lower leaf index.  That is the answer of a linear
    scan that keeps the first strictly-better queue, in O(1): {!argmin}
    reads the root.  Changing one leaf's key costs one leaf-to-root
    refresh, O(log leaves), and allocates nothing.

    Leaves are present or absent: an ull_runqueue is absent, so its
    mutations never touch the tree.  The tree reads each present
    leaf's load straight from its {!Load_tracking.t}; whoever updates
    that tracker or the leaf's length must {!refresh} the leaf before
    any other leaf changes ({!Runqueue} does it inside every
    mutator). *)

type t

val create : int -> t
(** A tree over leaves [0 .. n-1], all absent.
    @raise Invalid_argument if [n < 0]. *)

val size : t -> int
(** The number of leaves, present or not. *)

val attach : t -> int -> Load_tracking.t -> length:int -> unit
(** Make leaf [i] present, its load read from the tracker and its
    length [length]. *)

val detach : t -> int -> unit
(** Make leaf [i] absent. *)

val refresh : t -> int -> length:int -> unit
(** Leaf [i]'s tracker changed or its length is now [length]: bring
    the path to the root up to date.  A no-op on an absent leaf. *)

val argmin : t -> int
(** The present leaf with the least (load, length), the lowest index
    on a tie; [-1] if no leaf is present. *)
