module Affine = Horse_coalesce.Coalesce.Affine
module Precomputed = Horse_coalesce.Coalesce.Precomputed

(* The load sits alone in a float-only record, which OCaml stores
   flat: an update writes the float in place instead of boxing a
   fresh one, as a float field of the mixed outer record would.  The
   updates compute in this module, with no call that returns a float
   (which would box it unless the compiler inlines it). *)
type cell = { mutable value : float }

type t = { cell : cell; update : Affine.t; mutable updates : int }

let create ?(update = Affine.pelt) () =
  { cell = { value = 0.0 }; update; updates = 0 }

let load t = t.cell.value

let compare_load a b =
  let la = a.cell.value and lb = b.cell.value in
  if la < lb then -1 else if la > lb then 1 else 0

let update_fn t = t.update

let on_enqueue t =
  let f = t.update in
  t.cell.value <- (f.Affine.alpha *. t.cell.value) +. f.Affine.beta;
  t.updates <- t.updates + 1

let on_enqueue_coalesced t pre =
  t.cell.value <-
    (Precomputed.alpha_pow pre *. t.cell.value)
    +. Precomputed.geometric_sum pre;
  t.updates <- t.updates + 1

let on_dequeue t =
  let shed = t.cell.value -. t.update.Affine.beta in
  t.cell.value <- (if shed > 0.0 then shed else 0.0);
  t.updates <- t.updates + 1

let decay t ~periods =
  if periods < 0 then invalid_arg "Load_tracking.decay: negative periods";
  t.cell.value <-
    t.cell.value *. (t.update.Affine.alpha ** float_of_int periods)

let full_scale t = t.update.Affine.beta /. (1.0 -. t.update.Affine.alpha)

let utilisation t =
  Float.min 1.0 (Float.max 0.0 (t.cell.value /. full_scale t))

let updates t = t.updates
