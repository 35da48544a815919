module Intvec = Lcs_util.Intvec

(* Bounding eccentricities (Takes & Kosters, CIKM 2011). Every vertex w
   carries bounds lo.(w) <= ecc(w) <= hi.(w). A BFS from v with
   eccentricity e tightens them for every w at distance d:
   max(d, e - d) <= ecc(w) <= e + d. The largest lower bound [dl] bounds
   the diameter from below; from above it is bounded by 2·ecc(v) for any
   BFS source v and by the largest upper bound of a vertex that could
   still raise [dl]. A vertex whose upper bound is <= [dl] cannot, so it
   leaves the candidate set. Sources alternate between the candidate
   with the largest upper bound and the one with the smallest lower bound
   (ties: higher degree, then lower id). The loop stops when the bounds
   meet, at the latest once no candidate is left. *)
let exact g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Diameter.exact: empty graph";
  let off = Intvec.to_array (Graph.csr_offsets g) in
  let nbr = Intvec.to_array (Graph.csr_neighbors g) in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  (* BFS from [src] into [dist]; returns the eccentricity of [src]. *)
  let bfs src =
    Array.fill dist 0 n (-1);
    dist.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      let dw = dist.(v) + 1 in
      for s = off.(v) to off.(v + 1) - 1 do
        let w = nbr.(s) in
        if dist.(w) < 0 then begin
          dist.(w) <- dw;
          queue.(!tail) <- w;
          incr tail
        end
      done
    done;
    if !tail < n then invalid_arg "Bfs: graph is disconnected";
    dist.(queue.(n - 1))
  in
  let lo = Array.make n 0 and hi = Array.make n max_int in
  let candidate = Array.make n true in
  let degree v = off.(v + 1) - off.(v) in
  let prefer key v w =
    key w > key v || (key w = key v && degree w > degree v)
  in
  let dl = ref 0 and du = ref max_int and largest_hi = ref true in
  while !dl < !du do
    let key = if !largest_hi then fun v -> hi.(v) else fun v -> -lo.(v) in
    let src = ref (-1) in
    for w = 0 to n - 1 do
      if candidate.(w) && (!src < 0 || prefer key !src w) then src := w
    done;
    let src = !src in
    largest_hi := not !largest_hi;
    let e = bfs src in
    candidate.(src) <- false;
    if e > !dl then dl := e;
    if 2 * e < !du then du := 2 * e;
    for w = 0 to n - 1 do
      if candidate.(w) then begin
        let d = dist.(w) in
        let l = if d > e - d then d else e - d in
        if l > lo.(w) then lo.(w) <- l;
        if e + d < hi.(w) then hi.(w) <- e + d;
        if lo.(w) > !dl then dl := lo.(w)
      end
    done;
    let top = ref !dl in
    for w = 0 to n - 1 do
      if candidate.(w) then
        if hi.(w) <= !dl then candidate.(w) <- false
        else if hi.(w) > !top then top := hi.(w)
    done;
    if !top < !du then du := !top
  done;
  !dl

type bounds = { lower : int; upper : int }

let estimate ?(sweeps = 4) g =
  if Graph.n g = 0 then invalid_arg "Diameter.estimate: empty graph";
  let lower = ref 0 and upper = ref max_int in
  let v = ref 0 in
  for _ = 1 to sweeps do
    let far, ecc = Bfs.farthest g !v in
    if ecc > !lower then lower := ecc;
    if 2 * ecc < !upper then upper := 2 * ecc;
    v := far
  done;
  { lower = !lower; upper = max !lower !upper }

let of_graph ?(exact_limit = 2048) g =
  if Graph.n g <= exact_limit then exact g else (estimate g).lower
