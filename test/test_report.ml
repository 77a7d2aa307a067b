(* Report: the exact bytes the one JSON printer writes. Every
   committed BENCH_* artefact goes through it, so layout, escaping
   and number formatting are pinned here rather than by diffing
   artefacts. *)

open Report

let check name expected v = Alcotest.(check string) name expected (to_string v)

let test_scalars () =
  check "null" "null\n" Null;
  check "true" "true\n" (Bool true);
  check "false" "false\n" (Bool false);
  check "int" "-42\n" (Int (-42));
  check "max_int" "4611686018427387903\n" (Int max_int);
  check "string" "\"abc\"\n" (String "abc")

let test_empty () =
  check "empty list" "[]\n" (List []);
  check "empty object" "{}\n" (Obj []);
  check "empty string" "\"\"\n" (String "");
  check "empty containers inside" "{\n  \"a\": [],\n  \"b\": {}\n}\n"
    (Obj [ ("a", List []); ("b", Obj []) ])

let test_nested () =
  check "nested"
    "{\n\
    \  \"experiment\": \"e23\",\n\
    \  \"rows\": [\n\
    \    {\n\
    \      \"n\": 512,\n\
    \      \"ok\": true\n\
    \    },\n\
    \    [\n\
    \      1,\n\
    \      null\n\
    \    ]\n\
    \  ],\n\
    \  \"x\": 0.5\n\
     }\n"
    (Obj
       [
         ("experiment", String "e23");
         ("rows", List [ Obj [ ("n", Int 512); ("ok", Bool true) ]; List [ Int 1; Null ] ]);
         ("x", Float 0.5);
       ])

let test_escapes () =
  check "quote and backslash" "\"a\\\"b\\\\c\"\n" (String "a\"b\\c");
  check "newline" "\"x\\ny\"\n" (String "x\ny");
  check "control characters" "\"\\u0001\\u0009\\u001f\"\n" (String "\001\t\031");
  check "object keys escape too" "{\n  \"k\\\"\": 1\n}\n" (Obj [ ("k\"", Int 1) ]);
  check "non-ASCII passes through" "\"\xc3\xa9\"\n" (String "\xc3\xa9")

let test_floats () =
  check "nan" "null\n" (Float Float.nan);
  check "infinity" "null\n" (Float Float.infinity);
  check "neg_infinity" "null\n" (Float Float.neg_infinity);
  check "integral keeps .0" "2.0\n" (Float 2.);
  check "negative zero" "-0.0\n" (Float (-0.));
  check "shortest round trip" "0.1\n" (Float 0.1);
  check "needs 17 digits" "0.30000000000000004\n" (Float (0.1 +. 0.2));
  check "exponent" "1e+300\n" (Float 1e300);
  check "fixed rounds" "3.142\n" (fixed 3 Float.pi);
  check "fixed drops trailing zeros" "1.5\n" (fixed 4 1.5);
  check "fixed nan stays null" "null\n" (fixed 2 Float.nan);
  check "nan in a list" "[\n  null,\n  1.25\n]\n" (List [ Float Float.nan; Float 1.25 ])

let test_write () =
  let path = Filename.temp_file "report" ".json" in
  let v = Obj [ ("a", List [ Int 1; String "\n" ]) ] in
  write path v;
  let read = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "file holds to_string" (to_string v) read

let () =
  Alcotest.run "report"
    [
      ( "printer",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "empty values" `Quick test_empty;
          Alcotest.test_case "nested values" `Quick test_nested;
          Alcotest.test_case "escaped strings" `Quick test_escapes;
          Alcotest.test_case "floats and non-finite" `Quick test_floats;
          Alcotest.test_case "write" `Quick test_write;
        ] );
    ]
