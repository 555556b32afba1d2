(* Expected outputs, committed with the benchmark ([expected.json]).

   - Simulation cells: per-level [Stats], the cost breakdown and the
     [Fusion_model] counts (figure 12), computed by the [`Reference]
     backend (the access-by-access cascade, independent of [Fast_sim]),
     keyed by the cell's canonical spec.
   - Compile cells: per-array pads, the optimized program text and the
     number of [Validate.check] issues of the optimized program, from
     [Compiler.optimize] at the commit that recorded the file — the
     layout bit-identity gate.  A nonzero issue count records a known
     defect (see [Bench.check]).

   The file covers every cell of every workload at the committed seed. *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module E = Mlc_engine
module Json = Mlc_obs.Trace_check.Json

type compiled = {
  pads : (string * int * int) list;
  text : string;
  issues : int;  (** [Validate.check] issues of the optimized program *)
}

type sim = {
  stats : Cs.Stats.t list;
  cost : (string * float) list;
  counts : An.Fusion_model.counts option;
}

let sim_of (r : E.Job.result) =
  { stats = r.E.Job.level_stats; cost = r.E.Job.cost_breakdown; counts = r.E.Job.counts }

type t = {
  sims : (string, sim) Hashtbl.t;
  compiled : (string, compiled) Hashtbl.t;
}

(* Programs with gather subscripts have no source syntax; they are
   identified by a digest of their IR, tables included. *)
let program_text p =
  match Pretty.program p with
  | text -> text
  | exception Invalid_argument _ ->
      "ir-md5 " ^ Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))

let compiled_of (r : Locality.Compiler.result) =
  {
    pads =
      List.map
        (fun v -> (v, Layout.pad_before r.layout v, Layout.intra_pad r.layout v))
        (Layout.array_names r.layout);
    text = program_text r.program;
    issues = List.length (Validate.check r.program);
  }

(* --- reading ------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf failwith fmt

let field o k =
  match o with
  | Json.Obj kvs -> (
      match List.assoc_opt k kvs with Some v -> v | None -> fail "missing %S" k)
  | _ -> fail "expected an object around %S" k

let int_of = function Json.Int i -> i | _ -> fail "expected an integer"

let list_of = function Json.List l -> l | _ -> fail "expected a list"

let float_of = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> fail "expected a number"

let stats_of = function
  | Json.List [ a; h; m; w; wb ] ->
      {
        Cs.Stats.accesses = int_of a;
        hits = int_of h;
        misses = int_of m;
        writes = int_of w;
        writebacks = int_of wb;
      }
  | _ -> fail "expected [accesses, hits, misses, writes, writebacks]"

let load path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  let doc = Json.parse src in
  let t = { sims = Hashtbl.create 128; compiled = Hashtbl.create 32 } in
  (match field doc "sim" with
  | Json.Obj kvs ->
      List.iter
        (fun (k, v) ->
          let cost =
            List.map
              (function
                | Json.List [ Json.String part; x ] -> (part, float_of x)
                | _ -> fail "cost: expected [part, cycles]")
              (list_of (field v "cost"))
          in
          let counts =
            match field v "counts" with
            | Json.Null -> None
            | Json.List [ r; h; l2; m ] ->
                Some
                  {
                    An.Fusion_model.register = int_of r;
                    l1_hits = int_of h;
                    l2_refs = int_of l2;
                    memory_refs = int_of m;
                  }
            | _ -> fail "counts: expected null or [register, l1_hits, l2_refs, memory_refs]"
          in
          Hashtbl.replace t.sims k
            { stats = List.map stats_of (list_of (field v "stats")); cost; counts })
        kvs
  | _ -> fail "sim: expected an object");
  (match field doc "compile" with
  | Json.Obj kvs ->
      List.iter
        (fun (k, v) ->
          let pads =
            List.map
              (function
                | Json.List [ Json.String a; p; i ] -> (a, int_of p, int_of i)
                | _ -> fail "pads: expected [array, pad_before, intra_pad]")
              (list_of (field v "pads"))
          in
          let text =
            match field v "program" with
            | Json.String s -> s
            | _ -> fail "program: expected a string"
          in
          Hashtbl.replace t.compiled k
            { pads; text; issues = int_of (field v "validate_issues") })
        kvs
  | _ -> fail "compile: expected an object");
  t

(* --- writing ------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [sims] and [compiles] in cell order; one entry per line so that a
   changed expectation shows as a one-line diff. *)
let write path ~seed ~sims ~compiles =
  Out_channel.with_open_bin path (fun oc ->
      let entries f l =
        String.concat ",\n" (List.map (fun (k, v) -> "    " ^ json_string k ^ ": " ^ f v) l)
      in
      let stats (s : Cs.Stats.t) =
        Printf.sprintf "[%d, %d, %d, %d, %d]" s.accesses s.hits s.misses s.writes
          s.writebacks
      in
      let sim s =
        Printf.sprintf "{\"stats\": [%s], \"cost\": [%s], \"counts\": %s}"
          (String.concat ", " (List.map stats s.stats))
          (String.concat ", "
             (List.map
                (fun (part, x) -> Printf.sprintf "[%s, %.17g]" (json_string part) x)
                s.cost))
          (match s.counts with
          | None -> "null"
          | Some c ->
              Printf.sprintf "[%d, %d, %d, %d]" c.An.Fusion_model.register c.l1_hits
                c.l2_refs c.memory_refs)
      in
      let compiled c =
        Printf.sprintf "{\"pads\": [%s], \"validate_issues\": %d, \"program\": %s}"
          (String.concat ", "
             (List.map
                (fun (a, p, i) -> Printf.sprintf "[%s, %d, %d]" (json_string a) p i)
                c.pads))
          c.issues (json_string c.text)
      in
      Printf.fprintf oc
        "{\n  \"seed\": %d,\n  \"backend\": \"reference\",\n  \"sim\": {\n%s\n  },\n  \"compile\": {\n%s\n  }\n}\n"
        seed
        (entries sim sims)
        (entries compiled compiles))
