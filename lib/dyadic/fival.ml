(* Outward-rounded double intervals.  Every operation rounds to nearest
   and then steps one ulp outward, which covers the rounding error of the
   operation (at most half the gap to the neighbour in that direction). *)

type t = { lo : float; hi : float }

let down = Float.pred
let up = Float.succ
let point x = { lo = x; hi = x }

let make lo hi =
  if not (lo <= hi) then invalid_arg "Fival.make: lo > hi";
  { lo; hi }

let entire = { lo = Float.neg_infinity; hi = Float.infinity }

let of_ival iv =
  let lo, hi = Ival.to_rats iv in
  { lo = Rat.to_float_dir Rat.Down lo; hi = Rat.to_float_dir Rat.Up hi }

let to_rats a = (Rat.of_float a.lo, Rat.of_float a.hi)
let mag a = Float.max (Float.abs a.lo) (Float.abs a.hi)
let add a b = { lo = down (a.lo +. b.lo); hi = up (a.hi +. b.hi) }
let sub a b = { lo = down (a.lo -. b.hi); hi = up (a.hi -. b.lo) }

(* Rounding to nearest is monotone, so the rounded extreme product is the
   extreme of the rounded products. *)
let mul a b =
  if a.lo >= 0. && b.lo >= 0. then
    { lo = down (a.lo *. b.lo); hi = up (a.hi *. b.hi) }
  else
    let p = a.lo *. b.lo and q = a.lo *. b.hi in
    let r = a.hi *. b.lo and s = a.hi *. b.hi in
    { lo = down (Float.min (Float.min p q) (Float.min r s));
      hi = up (Float.max (Float.max p q) (Float.max r s)) }

let div a b =
  if b.lo <= 0. && b.hi >= 0. then raise Division_by_zero;
  if b.lo = b.hi && b.lo > 0. then
    { lo = down (a.lo /. b.lo); hi = up (a.hi /. b.lo) }
  else
    let p = a.lo /. b.lo and q = a.lo /. b.hi in
    let r = a.hi /. b.lo and s = a.hi /. b.hi in
    { lo = down (Float.min (Float.min p q) (Float.min r s));
      hi = up (Float.max (Float.max p q) (Float.max r s)) }

let mul_2exp a k =
  { lo = down (Float.ldexp a.lo k); hi = up (Float.ldexp a.hi k) }
let widen a e = { lo = down (a.lo -. e); hi = up (a.hi +. e) }
