(* A growable array of integer samples with exact nearest-rank
   percentiles. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 1024 0; len = 0 }
let length t = t.len

let add t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let append ~into t =
  for i = 0 to t.len - 1 do
    add into t.data.(i)
  done

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.stable_sort Int.compare a;
  a

(* Nearest rank: the smallest sample with at least [q] of the samples at
   or below it; 0 when there are none. *)
let percentile_of_sorted a q =
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Mean of the largest [share] of the samples (at least one); 0 when
   there are none. *)
let tail_mean_of_sorted a share =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let k = max 1 (int_of_float (share *. float_of_int n)) in
    let sum = ref 0 in
    for i = n - k to n - 1 do
      sum := !sum + a.(i)
    done;
    float_of_int !sum /. float_of_int k
  end

let mean t =
  if t.len = 0 then 0.
  else begin
    let sum = ref 0 in
    for i = 0 to t.len - 1 do
      sum := !sum + t.data.(i)
    done;
    float_of_int !sum /. float_of_int t.len
  end

let percentile t q = percentile_of_sorted (sorted t) q

(* Samples strictly above the [q] percentile's rank. *)
let beyond t q =
  t.len - int_of_float (Float.ceil (q *. float_of_int t.len))

(* Log2-bucketed histogram: bucket [b] counts samples in [2^(b-1), 2^b),
   bucket 0 counts zeros. *)
let histogram t =
  let h = Array.make 64 0 in
  for i = 0 to t.len - 1 do
    let v = t.data.(i) in
    let rec bits v n = if v = 0 then n else bits (v lsr 1) (n + 1) in
    let b = bits (max 0 v) 0 in
    h.(b) <- h.(b) + 1
  done;
  h

let median_float = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
