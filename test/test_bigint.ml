(* Unit and property tests for the arbitrary-precision integer substrate. *)

let b = Bigint.of_string
let bi = Bigint.of_int

let check_eq msg want got =
  Alcotest.(check string) msg want (Bigint.to_string got)

(* ---------- unit tests ---------- *)

let test_constants () =
  check_eq "zero" "0" Bigint.zero;
  check_eq "one" "1" Bigint.one;
  check_eq "two" "2" Bigint.two;
  check_eq "minus_one" "-1" Bigint.minus_one;
  check_eq "ten" "10" Bigint.ten

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (string_of_int n) (Some n)
        (Bigint.to_int (bi n)))
    [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 30; (1 lsl 30) - 1 ]

let test_of_string_forms () =
  check_eq "plus" "123" (b "+123");
  check_eq "underscores" "1000000" (b "1_000_000");
  check_eq "hex" "255" (b "0xff");
  check_eq "hex upper" "3735928559" (b "0XDEADBEEF");
  check_eq "neg hex" "-16" (b "-0x10");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (b ""));
  Alcotest.check_raises "garbage"
    (Invalid_argument "Bigint.of_string: bad character 'z'") (fun () ->
      ignore (b "1z3"))

let test_add_sub_known () =
  check_eq "carry chain"
    "10000000000000000000000000000000"
    (Bigint.add (b "9999999999999999999999999999999") (b "1"));
  check_eq "borrow chain" "9999999999999999999999999999999"
    (Bigint.sub (b "10000000000000000000000000000000") (b "1"));
  check_eq "sign flip" "-1" (Bigint.sub (b "1") (b "2"));
  check_eq "cancel" "0" (Bigint.sub (b "12345678901234567890") (b "12345678901234567890"))

let test_mul_known () =
  check_eq "paper-scale product"
    "-12193263113702179522496570642237463801111263526900"
    (Bigint.mul (b "123456789012345678901234567890") (b "-98765432109876543210"));
  check_eq "square"
    "15241578753238836750495351562536198787501905199875019052100"
    (Bigint.mul (b "123456789012345678901234567890") (b "123456789012345678901234567890"))

let test_karatsuba_consistency () =
  let open Bigint.Infix in
  (* Large operands cross the Karatsuba threshold; compare against a
     decomposition identity instead of a second multiplier:
     (a*B + c)(d*B + e) = ad B^2 + (ae + cd) B + ce. *)
  let big = Bigint.pow (b "1234567890987654321") 40 in
  let a = Bigint.shift_right big 600 in
  let c = big - Bigint.shift_left a 600 in
  let d = a + Bigint.one and e = c + Bigint.two in
  let other = Bigint.shift_left d 600 + e in
  let direct = big * other in
  let recomposed =
    Bigint.shift_left (a * d) 1200
    + Bigint.shift_left ((a * e) + (c * d)) 600
    + (c * e)
  in
  Alcotest.(check bool) "karatsuba identity" true (direct = recomposed)

let test_divmod_properties_known () =
  let q, r = Bigint.divmod (b "7") (b "2") in
  check_eq "7/2 q" "3" q;
  check_eq "7/2 r" "1" r;
  let q, r = Bigint.divmod (b "-7") (b "2") in
  check_eq "-7/2 q" "-3" q;
  check_eq "-7/2 r" "-1" r;
  let q, r = Bigint.divmod (b "7") (b "-2") in
  check_eq "7/-2 q" "-3" q;
  check_eq "7/-2 r" "1" r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_fdiv_cdiv () =
  check_eq "fdiv -7 2" "-4" (Bigint.fdiv (bi (-7)) (bi 2));
  check_eq "cdiv -7 2" "-3" (Bigint.cdiv (bi (-7)) (bi 2));
  check_eq "fdiv 7 -2" "-4" (Bigint.fdiv (bi 7) (bi (-2)));
  check_eq "cdiv 7 2" "4" (Bigint.cdiv (bi 7) (bi 2));
  let q, r = Bigint.fdivmod (bi (-7)) (bi 2) in
  check_eq "fdivmod q" "-4" q;
  check_eq "fdivmod r" "1" r

let test_shifts () =
  check_eq "shl" "1267650600228229401496703205376" (Bigint.pow2 100);
  check_eq "shr floor pos" "3" (Bigint.shift_right (bi 7) 1);
  check_eq "shr floor neg" "-4" (Bigint.shift_right (bi (-7)) 1);
  check_eq "shr all" "0" (Bigint.shift_right (bi 7) 10);
  check_eq "shr all neg" "-1" (Bigint.shift_right (bi (-7)) 10)

let test_bits () =
  Alcotest.(check int) "numbits 0" 0 (Bigint.numbits Bigint.zero);
  Alcotest.(check int) "numbits 1" 1 (Bigint.numbits Bigint.one);
  Alcotest.(check int) "numbits 2^100" 101 (Bigint.numbits (Bigint.pow2 100));
  Alcotest.(check bool) "testbit" true (Bigint.testbit (bi 5) 2);
  Alcotest.(check bool) "testbit off" false (Bigint.testbit (bi 5) 1);
  Alcotest.(check int) "trailing zeros" 100
    (Bigint.trailing_zeros (Bigint.pow2 100));
  Alcotest.(check int) "trailing zeros odd" 0 (Bigint.trailing_zeros (bi 5))

let test_gcd_pow () =
  check_eq "gcd" "6" (Bigint.gcd (bi 48) (bi (-18)));
  check_eq "gcd zero" "5" (Bigint.gcd (bi 5) Bigint.zero);
  check_eq "pow" "1024" (Bigint.pow (bi 2) 10);
  check_eq "pow 0" "1" (Bigint.pow (bi 7) 0);
  Alcotest.check_raises "neg pow"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (Bigint.pow (bi 2) (-1)))

let test_to_float_correct_rounding () =
  (* 2^53 + 1 is a tie -> rounds to even (2^53); +3 rounds up. *)
  Alcotest.(check (float 0.0)) "tie to even" 9007199254740992.0
    (Bigint.to_float (b "9007199254740993"));
  Alcotest.(check (float 0.0)) "round up" 9007199254740996.0
    (Bigint.to_float (b "9007199254740995"));
  Alcotest.(check (float 0.0)) "huge" Float.infinity
    (Bigint.to_float (Bigint.pow2 1100));
  Alcotest.(check (float 0.0)) "neg huge" Float.neg_infinity
    (Bigint.to_float (Bigint.neg (Bigint.pow2 1100)))

(* The limb-level scalar multiply must agree with the general product for
   every scalar size class: single limb, two limbs, three limbs (> 2^60),
   the native extremes, and negatives. *)
let test_mul_int_large () =
  let scalars =
    [
      0; 1; -1; 7; -7;
      (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1;  (* one/two limb boundary *)
      -(1 lsl 30); (1 lsl 45) + 12345; -((1 lsl 45) + 12345);
      (1 lsl 60) - 1; 1 lsl 60; (1 lsl 60) + 987654321;  (* three limbs *)
      max_int; -max_int; min_int; min_int + 1;
    ]
  in
  let values =
    [ Bigint.zero; Bigint.one; Bigint.minus_one; bi max_int;
      b "123456789123456789123456789123456789"; Bigint.neg (b "999999999999999999999999");
      Bigint.pow2 200 ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun n ->
          check_eq
            (Printf.sprintf "%s * %d" (Bigint.to_string a) n)
            (Bigint.to_string (Bigint.mul a (bi n)))
            (Bigint.mul_int a n))
        scalars)
    values

(* ---------- property tests ---------- *)

(* Random decimal strings of widely varying size, signed. *)
let arb_bigint =
  QCheck2.Gen.(
    let* n_chunks = int_range 1 8 in
    let* chunks = list_size (return n_chunks) (int_bound 999_999_999) in
    let* neg = bool in
    let s = String.concat "" (List.map string_of_int (1 :: chunks)) in
    return (Bigint.of_string (if neg then "-" ^ s else s)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

(* Euclid by [rem]: the reference for gcd's binary loop and fast paths. *)
let rec gcd_ref a bb =
  if Bigint.is_zero bb then Bigint.abs a else gcd_ref bb (Bigint.rem a bb)

(* Operands biased to each gcd path: one or two limbs (native ints), an
   odd number times 2^k, exact powers of two (odd part 1), multi-limb
   values, zero; either sign. *)
let arb_gcd_operand =
  QCheck2.Gen.(
    let* mag =
      frequency
        [
          (3, map Bigint.of_int (int_bound ((1 lsl 60) - 1)));
          ( 2,
            let* o = int_bound ((1 lsl 40) - 1) in
            let* k = int_bound 200 in
            return (Bigint.shift_left (Bigint.of_int ((2 * o) + 1)) k) );
          (2, map Bigint.pow2 (int_bound 300));
          (2, arb_bigint);
          (1, return Bigint.zero);
        ]
    in
    let* neg = bool in
    return (if neg then Bigint.neg mag else mag))

(* Independent pairs, and pairs sharing a random factor. *)
let arb_gcd_pair =
  QCheck2.Gen.(
    frequency
      [
        (1, pair arb_gcd_operand arb_gcd_operand);
        ( 1,
          let* g = arb_gcd_operand in
          let* x = arb_gcd_operand in
          let* y = arb_gcd_operand in
          return (Bigint.mul g x, Bigint.mul g y) );
      ])

let props =
  let beq = Bigint.equal in
  let badd = Bigint.add and bmul = Bigint.mul in
  [
    prop "string round-trip" arb_bigint (fun x ->
        beq (Bigint.of_string (Bigint.to_string x)) x);
    prop "add comm" (QCheck2.Gen.pair arb_bigint arb_bigint) (fun (a, bb) ->
        beq (badd a bb) (badd bb a));
    prop "mul_int agrees with mul" (QCheck2.Gen.pair arb_bigint QCheck2.Gen.int)
      (fun (a, n) -> beq (Bigint.mul_int a n) (bmul a (Bigint.of_int n)));
    prop "mul comm" (QCheck2.Gen.pair arb_bigint arb_bigint) (fun (a, bb) ->
        beq (bmul a bb) (bmul bb a));
    prop "distributivity"
      (QCheck2.Gen.triple arb_bigint arb_bigint arb_bigint)
      (fun (a, bb, c) -> beq (bmul a (badd bb c)) (badd (bmul a bb) (bmul a c)));
    prop "divmod invariant" (QCheck2.Gen.pair arb_bigint arb_bigint)
      (fun (a, bb) ->
        Bigint.is_zero bb
        ||
        let q, r = Bigint.divmod a bb in
        beq a (badd (bmul q bb) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs bb) < 0
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a));
    prop "fdivmod invariant" (QCheck2.Gen.pair arb_bigint arb_bigint)
      (fun (a, bb) ->
        Bigint.is_zero bb
        ||
        let q, r = Bigint.fdivmod a bb in
        beq a (badd (bmul q bb) r)
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign bb));
    prop "shift inverse" (QCheck2.Gen.pair arb_bigint (QCheck2.Gen.int_bound 200))
      (fun (a, k) -> beq (Bigint.shift_right (Bigint.shift_left a k) k) a);
    prop "gcd divides" (QCheck2.Gen.pair arb_bigint arb_bigint) (fun (a, bb) ->
        (Bigint.is_zero a && Bigint.is_zero bb)
        ||
        let g = Bigint.gcd a bb in
        Bigint.is_zero (Bigint.rem a g) && Bigint.is_zero (Bigint.rem bb g));
    prop "numbits bound" arb_bigint (fun a ->
        Bigint.is_zero a
        ||
        let n = Bigint.numbits a in
        Bigint.compare (Bigint.abs a) (Bigint.pow2 n) < 0
        && Bigint.compare (Bigint.pow2 (n - 1)) (Bigint.abs a) <= 0);
    prop "compare antisym" (QCheck2.Gen.pair arb_bigint arb_bigint)
      (fun (a, bb) -> Bigint.compare a bb = -Bigint.compare bb a);
    prop "gcd matches Euclid" arb_gcd_pair (fun (a, bb) ->
        beq (Bigint.gcd a bb) (gcd_ref a bb));
    prop "of_int matches decimal parsing" QCheck2.Gen.int (fun n ->
        beq (Bigint.of_int n) (Bigint.of_string (string_of_int n)));
  ]

let suite =
  [
    ("constants", `Quick, test_constants);
    ("of_int round-trip", `Quick, test_of_int_roundtrip);
    ("of_string forms", `Quick, test_of_string_forms);
    ("add/sub carries", `Quick, test_add_sub_known);
    ("mul known answers", `Quick, test_mul_known);
    ("mul_int limb-level", `Quick, test_mul_int_large);
    ("karatsuba identity", `Quick, test_karatsuba_consistency);
    ("divmod semantics", `Quick, test_divmod_properties_known);
    ("fdiv/cdiv", `Quick, test_fdiv_cdiv);
    ("shifts", `Quick, test_shifts);
    ("bit operations", `Quick, test_bits);
    ("gcd/pow", `Quick, test_gcd_pow);
    ("to_float correct rounding", `Quick, test_to_float_correct_rounding);
  ]
  @ props
