type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { samples = Array.make 64 0.0; len = 0; sorted = true }

let add t v =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- v;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len
let samples t = Array.sub t.samples 0 t.len

(* Heapsort of the first [n] samples in place, by [Float.compare] (the
   order [compare] gives floats). Monomorphic, so no sample is boxed, and
   nothing is copied. [sift a i n] moves [a.(i)] down the heap [0, n). *)
let rec sift (a : float array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l in
    if Float.compare a.(c) a.(i) > 0 then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let sort_prefix a n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done

let ensure_sorted t =
  if not t.sorted then begin
    sort_prefix t.samples t.len;
    t.sorted <- true
  end

let total t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.samples.(i)
  done;
  !s

let mean t = if t.len = 0 then 0.0 else total t /. float_of_int t.len

let min_value t =
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    t.samples.(0)
  end

let max_value t =
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    t.samples.(t.len - 1)
  end

let percentile t p =
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    let rank = int_of_float (ceil (p *. float_of_int t.len)) - 1 in
    t.samples.(max 0 (min (t.len - 1) rank))
  end

let merge a b =
  let t = create () in
  for i = 0 to a.len - 1 do add t a.samples.(i) done;
  for i = 0 to b.len - 1 do add t b.samples.(i) done;
  t

let summary t =
  Printf.sprintf "n=%d mean=%.4f p50=%.4f p95=%.4f p99=%.4f max=%.4f"
    (count t) (mean t) (percentile t 0.5) (percentile t 0.95)
    (percentile t 0.99) (max_value t)
