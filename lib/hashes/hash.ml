module Space = Dht_hashspace.Space

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* A [for] loop over [String.unsafe_get] keeps the accumulator a local
   mutable the native compiler holds unboxed: no closure, no boxed
   [Int64] per byte. Every stored cell's hash point comes through here. *)
let[@inline] fnv1a64 s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  logxor z (shift_right_logical z 33)

let[@inline] to_space sp h64 =
  Int64.to_int (Int64.shift_right_logical h64 (64 - Space.bits sp))

let string sp k = to_space sp (mix64 (fnv1a64 k))
let int sp k = to_space sp (mix64 (Int64.of_int k))
