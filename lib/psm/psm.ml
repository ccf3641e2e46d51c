module Al = Arena_list

exception Stale

module Index = struct
  type 'a t = {
    target : 'a Al.t;
    mutable nodes : Al.handle array;
    mutable size : int;
  }

  let build target = { target; nodes = Al.handles target; size = Al.length target }

  let target t = t.target

  let length t = t.size

  let anchor t k =
    if k < 0 || k > t.size then invalid_arg "Psm.Index.anchor: key out of range";
    if k = 0 then Al.nil else t.nodes.(k - 1)

  let ensure_capacity t =
    if t.size = Array.length t.nodes then begin
      let capacity = max 8 (2 * t.size) in
      let nodes = Array.make capacity Al.nil in
      Array.blit t.nodes 0 nodes 0 t.size;
      t.nodes <- nodes
    end

  let note_insert t ~pos node =
    if pos < 0 || pos > t.size then
      invalid_arg "Psm.Index.note_insert: position out of range";
    ensure_capacity t;
    Array.blit t.nodes pos t.nodes (pos + 1) (t.size - pos);
    t.nodes.(pos) <- node;
    t.size <- t.size + 1

  let note_remove t ~pos =
    if pos < 0 || pos >= t.size then
      invalid_arg "Psm.Index.note_remove: position out of range";
    Array.blit t.nodes (pos + 1) t.nodes pos (t.size - pos - 1);
    t.size <- t.size - 1

  let rebuild t =
    t.nodes <- Al.handles t.target;
    t.size <- Al.length t.target

  (* #{b in B : b <= a}: first position whose node value exceeds [a].
     A plain loop over refs, so a resume deriving posA allocates
     nothing. *)
  let find_key t a =
    let compare = Al.compare_fn t.target in
    let lo = ref 0 and hi = ref t.size in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if compare (Al.value t.target t.nodes.(mid)) a <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  let is_consistent t =
    t.size = Al.length t.target
    &&
    let fresh = Al.handles t.target in
    let ok = ref true in
    Array.iteri (fun i h -> if not (Al.equal h t.nodes.(i)) then ok := false) fresh;
    !ok
end

module Plan = struct
  (* posA as four parallel arrays over segment index: splice key,
     first/last source handle, element count.  Keys are strictly
     ascending; segments are contiguous runs of the (sorted) source
     chain, so [heads]/[tails] chain into each other in array order.
     Flat storage makes the per-mutation maintenance (the note_target
     operations) in-place int arithmetic that allocates nothing. *)
  type 'a t = {
    source : 'a Al.t;
    compare : 'a -> 'a -> int;
    mutable keys : int array;
    mutable heads : Al.handle array;
    mutable tails : Al.handle array;
    mutable counts : int array;
    mutable nseg : int;
    mutable total : int;
    mutable valid : bool;
  }

  type stats = { threads : int; spliced : int; max_segment : int }

  let create ~capacity source =
    if capacity < 0 then invalid_arg "Psm.Plan.create: negative capacity";
    {
      source;
      compare = Al.compare_fn source;
      keys = Array.make capacity 0;
      heads = Array.make capacity Al.nil;
      tails = Array.make capacity Al.nil;
      counts = Array.make capacity 0;
      nseg = 0;
      total = 0;
      valid = true;
    }

  let ensure_seg_capacity t =
    if t.nseg = Array.length t.keys then begin
      let cap = max 8 (2 * t.nseg) in
      let grow arr fill =
        let n = Array.make cap fill in
        Array.blit arr 0 n 0 t.nseg;
        n
      in
      t.keys <- grow t.keys 0;
      t.heads <- grow t.heads Al.nil;
      t.tails <- grow t.tails Al.nil;
      t.counts <- grow t.counts 0
    end

  (* Shift segments [i, nseg) one place right/left (all four arrays). *)
  let shift_right t i =
    ensure_seg_capacity t;
    let n = t.nseg - i in
    Array.blit t.keys i t.keys (i + 1) n;
    Array.blit t.heads i t.heads (i + 1) n;
    Array.blit t.tails i t.tails (i + 1) n;
    Array.blit t.counts i t.counts (i + 1) n;
    t.nseg <- t.nseg + 1

  let shift_left t i =
    let n = t.nseg - i - 1 in
    Array.blit t.keys (i + 1) t.keys i n;
    Array.blit t.heads (i + 1) t.heads i n;
    Array.blit t.tails (i + 1) t.tails i n;
    Array.blit t.counts (i + 1) t.counts i n;
    t.nseg <- t.nseg - 1

  (* Append during build: keys arrive non-decreasing, so a repeat key
     extends the last segment. *)
  let push t ~key ~node =
    if t.nseg > 0 && t.keys.(t.nseg - 1) = key then begin
      t.tails.(t.nseg - 1) <- node;
      t.counts.(t.nseg - 1) <- t.counts.(t.nseg - 1) + 1
    end
    else begin
      ensure_seg_capacity t;
      t.keys.(t.nseg) <- key;
      t.heads.(t.nseg) <- node;
      t.tails.(t.nseg) <- node;
      t.counts.(t.nseg) <- 1;
      t.nseg <- t.nseg + 1
    end;
    t.total <- t.total + 1

  (* Segment index holding [key], or -1. *)
  let find_seg t key =
    let lo = ref 0 and hi = ref t.nseg in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.keys.(mid) < key then lo := mid + 1 else hi := mid
    done;
    if !lo < t.nseg && t.keys.(!lo) = key then !lo else -1

  let build ~source ~(index : 'a Index.t) =
    let t = create ~capacity:(Al.length source) source in
    (* Two-pointer scan: both lists are sorted, so the key is found by
       advancing a single cursor over the index. *)
    let cursor = ref 0 in
    let n = Index.length index in
    Array.iter
      (fun node ->
        let a = Al.value source node in
        while
          !cursor < n
          && t.compare (Al.value index.Index.target index.Index.nodes.(!cursor)) a
             <= 0
        do
          incr cursor
        done;
        push t ~key:!cursor ~node)
      (Al.handles source);
    t

  let refill t ~index =
    t.nseg <- 0;
    t.total <- 0;
    t.valid <- true;
    let node = ref (Al.first t.source) in
    while not (Al.is_nil !node) do
      push t ~key:(Index.find_key index (Al.value t.source !node)) ~node:!node;
      node := Al.next t.source !node
    done

  let build_binary ~source ~index =
    let t = create ~capacity:(Al.length source) source in
    refill t ~index;
    t

  let key_count t = t.nseg

  let total t = t.total

  let keys t = Array.to_list (Array.sub t.keys 0 t.nseg)

  let keys_counts t = (Array.sub t.keys 0 t.nseg, Array.sub t.counts 0 t.nseg)

  let segments_snapshot t =
    List.init t.nseg (fun i ->
        let rec walk node remaining acc =
          let acc = node :: acc in
          if remaining <= 1 then List.rev acc
          else walk (Al.next t.source node) (remaining - 1) acc
        in
        (t.keys.(i), walk t.heads.(i) t.counts.(i) []))

  (* Split the segment at [key]: the suffix of elements [a] with
     [v <= a] moves to [key + 1] (they now follow the new target
     element). *)
  let split_segment t key v =
    let i = find_seg t key in
    if i >= 0 then begin
      let count = t.counts.(i) in
      (* walk to the first element of the segment that must follow the
         new target element, i.e. the first [a] with [v <= a] (sorted,
         so the moved part is a suffix); [walked = count] if none *)
      let node = ref t.heads.(i) and walked = ref 0 in
      while !walked < count && t.compare v (Al.value t.source !node) > 0 do
        node := Al.next t.source !node;
        incr walked
      done;
      let walked = !walked in
      if walked = 0 then
        (* the whole segment moves: just re-key it (pos+1 is free —
           strictly greater keys were already shifted) *)
        t.keys.(i) <- key + 1
      else if walked < count then begin
        (* a proper suffix moves: split it off *)
        let node = !node in
        let old_tail = t.tails.(i) in
        t.tails.(i) <- Al.prev t.source node;
        t.counts.(i) <- walked;
        shift_right t (i + 1);
        t.keys.(i + 1) <- key + 1;
        t.heads.(i + 1) <- node;
        t.tails.(i + 1) <- old_tail;
        t.counts.(i + 1) <- count - walked
      end
      (* otherwise every element stays before the new target node *)
    end

  let note_target_insert t ~pos v =
    (* Order matters: first re-key strictly-greater segments (freeing
       key pos+1), then split the straddling one so its moved suffix
       lands at pos+1 without being double-shifted. *)
    for j = 0 to t.nseg - 1 do
      if t.keys.(j) > pos then t.keys.(j) <- t.keys.(j) + 1
    done;
    split_segment t pos v

  let note_target_remove t ~pos =
    let q = pos + 1 in
    (* the removed element was the q-th (1-based) of the target *)
    let i = find_seg t q in
    for j = 0 to t.nseg - 1 do
      if t.keys.(j) > q then t.keys.(j) <- t.keys.(j) - 1
    done;
    if i >= 0 then
      if i > 0 && t.keys.(i - 1) = q - 1 then begin
        (* contiguous runs of the source: segment i chains right after
           segment i-1, so the merge is pure bookkeeping *)
        t.tails.(i - 1) <- t.tails.(i);
        t.counts.(i - 1) <- t.counts.(i - 1) + t.counts.(i);
        shift_left t i
      end
      else t.keys.(i) <- q - 1

  let note_source_insert t ~index ~node =
    let v = Al.value t.source node in
    let key = Index.find_key index v in
    let i = find_seg t key in
    if i >= 0 then begin
      if t.compare v (Al.value t.source t.heads.(i)) < 0 then t.heads.(i) <- node;
      if t.compare v (Al.value t.source t.tails.(i)) >= 0 then t.tails.(i) <- node;
      t.counts.(i) <- t.counts.(i) + 1
    end
    else begin
      (* first index with a greater key *)
      let lo = ref 0 and hi = ref t.nseg in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if t.keys.(mid) < key then lo := mid + 1 else hi := mid
      done;
      shift_right t !lo;
      t.keys.(!lo) <- key;
      t.heads.(!lo) <- node;
      t.tails.(!lo) <- node;
      t.counts.(!lo) <- 1
    end;
    t.total <- t.total + 1

  let note_source_remove t ~node =
    (* Segments tile the source in order, so the covering segment
       falls out of the node's position and the count prefix sums. *)
    let pos = Al.position t.source node in
    let i = ref 0 and cum = ref 0 in
    while !i < t.nseg && !cum + t.counts.(!i) <= pos do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    if !i >= t.nseg then raise Not_found;
    let i = !i in
    if t.counts.(i) = 1 then shift_left t i
    else begin
      if Al.equal t.heads.(i) node then t.heads.(i) <- Al.next t.source node
      else if Al.equal t.tails.(i) node then t.tails.(i) <- Al.prev t.source node;
      t.counts.(i) <- t.counts.(i) - 1
    end;
    t.total <- t.total - 1

  let check_fresh t ~index ~source =
    if not t.valid then raise Stale;
    if Index.length index <> Al.length (Index.target index) then raise Stale;
    if t.total <> Al.length source then raise Stale;
    for j = 0 to t.nseg - 1 do
      if t.keys.(j) < 0 || t.keys.(j) > Index.length index then raise Stale
    done

  let splice_one t index target i =
    Al.Unsafe.link_after target ~anchor:(Index.anchor index t.keys.(i))
      ~first:t.heads.(i) ~last:t.tails.(i)

  let finish t =
    let max_segment = ref 0 in
    for j = 0 to t.nseg - 1 do
      if t.counts.(j) > !max_segment then max_segment := t.counts.(j)
    done;
    let stats =
      { threads = t.nseg; spliced = t.total; max_segment = !max_segment }
    in
    t.valid <- false;
    t.nseg <- 0;
    t.total <- 0;
    stats

  let commit t ~target ~source =
    Al.Unsafe.merge_commit ~target ~source ~keys:t.keys ~counts:t.counts
      ~nseg:t.nseg;
    finish t

  let execute t ~index ~source =
    check_fresh t ~index ~source;
    let target = Index.target index in
    for i = 0 to t.nseg - 1 do
      splice_one t index target i
    done;
    commit t ~target ~source

  let execute_parallel ~domains t ~index ~source =
    if domains < 1 then invalid_arg "Psm.Plan.execute_parallel: domains < 1";
    check_fresh t ~index ~source;
    let target = Index.target index in
    let n = t.nseg in
    let workers = min domains (max n 1) in
    (* strand [w] handles segments w, w+workers, w+2·workers …;
       distinct keys touch disjoint chain cells, so the strands need
       no mutual exclusion.  The strands run on the process-wide
       Horse_parallel team of that width (inline at width 1): repeated
       merges reuse its domains instead of paying a spawn/join per
       resume. *)
    if n > 0 then
      Horse_parallel.Team.run (Horse_parallel.Team.shared ~width:workers)
        (fun w ->
          let i = ref w in
          while !i < n do
            splice_one t index target !i;
            i := !i + workers
          done);
    commit t ~target ~source

  let is_consistent t ~index ~source =
    t.valid
    && t.total = Al.length source
    &&
    let fresh = build ~source ~index in
    fresh.nseg = t.nseg
    &&
    let ok = ref true in
    for j = 0 to t.nseg - 1 do
      if
        fresh.keys.(j) <> t.keys.(j)
        || fresh.counts.(j) <> t.counts.(j)
        || not (Al.equal fresh.heads.(j) t.heads.(j))
        || not (Al.equal fresh.tails.(j) t.tails.(j))
      then ok := false
    done;
    !ok
end
