(** Append-only store of fixed-width int rows, grown in chunks.

    The first chunk doubles up to {!chunk_rows} rows; after that the
    store adds one full chunk at a time and never copies a row again,
    so growth leaves no outgrown arrays behind as garbage.  The
    backing store of {!Trigger_records} and of the cluster's
    completion log. *)

type t

val chunk_rows : int
(** Rows per full chunk (1024). *)

val create : width:int -> t
(** An empty store of rows of [width] ints.
    @raise Invalid_argument if [width < 1]. *)

val length : t -> int

val append : t -> int
(** Reserve the next row and return its index.  Its fields hold
    whatever the row last held (zero in a fresh chunk): set every one. *)

val get : t -> int -> int -> int
(** [get t row col], for [row < length t] and [col < width].  Reads
    past the reserved rows are unchecked here. *)

val set : t -> int -> int -> int -> unit
(** [set t row col v]. *)

val clear : t -> unit
(** Drop every row, keeping the chunks for reuse. *)
