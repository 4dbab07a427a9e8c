(* The region is an array of fixed 4 KB chunks.  Every chunk starts as the one
   shared [zero] chunk and gets bytes of its own on its first write, so an
   untouched region costs one pointer per chunk.  [zero] is never written:
   every store goes through [writable]. *)

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let zero = Bytes.make chunk_size '\000'

type t = { size : int; chunks : bytes array }

let create size =
  if size < 0 then invalid_arg "Phys_mem.create: negative size";
  { size; chunks = Array.make ((size + chunk_mask) lsr chunk_bits) zero }

let check t off len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Phys_mem: access [%d, %d) outside region of %d bytes" off
         (off + len) t.size)

let writable t i =
  let c = Array.unsafe_get t.chunks i in
  if c != zero then c
  else begin
    let c = Bytes.make chunk_size '\000' in
    Array.unsafe_set t.chunks i c;
    c
  end

(* [pieces off len f] splits [off, off+len) at chunk boundaries and calls
   [f chunk chunk_off pos n] for each piece, [pos] counting from [off]. *)
let pieces off len f =
  let rec go off pos =
    if pos < len then begin
      let coff = off land chunk_mask in
      let n = min (len - pos) (chunk_size - coff) in
      f (off lsr chunk_bits) coff pos n;
      go (off + n) (pos + n)
    end
  in
  go off 0

let blit_out t ~off buf len =
  pieces off len (fun i coff pos n -> Bytes.blit t.chunks.(i) coff buf pos n)

let blit_in t ~off buf buf_off len =
  pieces off len (fun i coff pos n -> Bytes.blit buf (buf_off + pos) (writable t i) coff n)

(* Accesses of up to 8 bytes: one chunk lookup when the access fits in its
   chunk, a byte copy through a scratch buffer when it straddles two. *)
let fits off len = off land chunk_mask + len <= chunk_size

let straddle_get t off len get =
  let b = Bytes.create 8 in
  blit_out t ~off b len;
  get b 0

let straddle_set t off len set v =
  let b = Bytes.create 8 in
  set b 0 v;
  blit_in t ~off b 0 len

let get_u8 t off =
  check t off 1;
  Char.code
    (Bytes.unsafe_get (Array.unsafe_get t.chunks (off lsr chunk_bits)) (off land chunk_mask))

let set_u8 t off v =
  check t off 1;
  Bytes.unsafe_set (writable t (off lsr chunk_bits)) (off land chunk_mask)
    (Char.unsafe_chr (v land 0xFF))

let get_i32 t off =
  check t off 4;
  if fits off 4 then
    Bytes.get_int32_le (Array.unsafe_get t.chunks (off lsr chunk_bits)) (off land chunk_mask)
  else straddle_get t off 4 Bytes.get_int32_le

let set_i32 t off v =
  check t off 4;
  if fits off 4 then Bytes.set_int32_le (writable t (off lsr chunk_bits)) (off land chunk_mask) v
  else straddle_set t off 4 Bytes.set_int32_le v

let get_i64 t off =
  check t off 8;
  if fits off 8 then
    Bytes.get_int64_le (Array.unsafe_get t.chunks (off lsr chunk_bits)) (off land chunk_mask)
  else straddle_get t off 8 Bytes.get_int64_le

let set_i64 t off v =
  check t off 8;
  if fits off 8 then Bytes.set_int64_le (writable t (off lsr chunk_bits)) (off land chunk_mask) v
  else straddle_set t off 8 Bytes.set_int64_le v

let get_f64 t off = Int64.float_of_bits (get_i64 t off)
let set_f64 t off v = set_i64 t off (Int64.bits_of_float v)

let get_int t off = Int64.to_int (get_i64 t off)
let set_int t off v = set_i64 t off (Int64.of_int v)

let read_bytes t ~off ~len =
  check t off len;
  let b = Bytes.create len in
  blit_out t ~off b len;
  b

let write_bytes t ~off b =
  let len = Bytes.length b in
  check t off len;
  blit_in t ~off b 0 len
