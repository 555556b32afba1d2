(* Structured observability: spans, counters, sinks.

   Design constraints (see doc/OBSERVABILITY.md):
   - the disabled path must be near-free: with no buffer installed in the
     current domain, every entry point is a Domain.DLS read and a branch;
   - recording is single-domain: a buffer is only ever written by the
     domain that installed it, so the hot path takes no locks;
   - merging is deterministic: Buf.merge appends events buffer-by-buffer
     and sums counters, so merging per-worker buffers in submission order
     yields the same totals for any worker count. *)

type arg = [ `Int of int | `Float of float | `Str of string | `Bool of bool ]

type kind = Span_begin | Span_end | Instant | Sample

type event = {
  kind : kind;
  name : string;
  cat : string;
  ts : int;
  tid : int;
  args : (string * arg) list;
  value : int;
}

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

module Buf = struct
  type t = {
    tid : int;
    mutable events_rev : event list;  (* newest first *)
    mutable n_events : int;
    mutable last_ts : int;
    counters : (string, int ref) Hashtbl.t;
  }

  let create ?(tid = 0) () =
    {
      tid;
      events_rev = [];
      n_events = 0;
      last_ts = 0;
      counters = Hashtbl.create 16;
    }

  let events t = List.rev t.events_rev

  let n_events t = t.n_events

  (* Monotone per-buffer clock: gettimeofday can step backwards under
     NTP; clamping keeps every buffer's event stream non-decreasing,
     which the Chrome-trace export and validator rely on. *)
  let stamp t =
    let now = now_us () in
    let ts = if now > t.last_ts then now else t.last_ts in
    t.last_ts <- ts;
    ts

  let emit t e =
    t.events_rev <- e :: t.events_rev;
    t.n_events <- t.n_events + 1

  let bump t name n =
    let r =
      match Hashtbl.find_opt t.counters name with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.add t.counters name r;
          r
    in
    r := !r + n;
    !r

  let counters t =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let counter t name =
    match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

  let merge ~into src =
    (* events_rev is newest-first, so prepending src's (newest-first)
       list keeps each buffer's events contiguous and ordered:
       chronological output is "into's events, then src's". *)
    into.events_rev <- src.events_rev @ into.events_rev;
    into.n_events <- into.n_events + src.n_events;
    if src.last_ts > into.last_ts then into.last_ts <- src.last_ts;
    Hashtbl.iter (fun name r -> ignore (bump into name !r)) src.counters
end

(* One mutable slot per domain; only the owning domain reads or writes
   it, so no synchronization is needed. *)
let slot : Buf.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get slot)

let enabled () = current () <> None

let with_buf buf f =
  let r = Domain.DLS.get slot in
  let saved = !r in
  r := Some buf;
  Fun.protect ~finally:(fun () -> r := saved) f

(* --- spans --------------------------------------------------------------- *)

type span = (Buf.t * string * string) option

let begin_span ?(cat = "") ?(args = []) name : span =
  match current () with
  | None -> None
  | Some b ->
      Buf.emit b
        {
          kind = Span_begin;
          name;
          cat;
          ts = Buf.stamp b;
          tid = b.Buf.tid;
          args;
          value = 0;
        };
      Some (b, name, cat)

let end_span (s : span) =
  match s with
  | None -> ()
  | Some (b, name, cat) ->
      Buf.emit b
        {
          kind = Span_end;
          name;
          cat;
          ts = Buf.stamp b;
          tid = b.Buf.tid;
          args = [];
          value = 0;
        }

let with_span ?cat ?args name f =
  match current () with
  | None -> f ()
  | Some _ ->
      let s = begin_span ?cat ?args name in
      Fun.protect ~finally:(fun () -> end_span s) f

(* --- instants and counters ----------------------------------------------- *)

let instant ?(cat = "") ?(args = []) name =
  match current () with
  | None -> ()
  | Some b ->
      Buf.emit b
        {
          kind = Instant;
          name;
          cat;
          ts = Buf.stamp b;
          tid = b.Buf.tid;
          args;
          value = 0;
        }

let count ?(n = 1) name =
  match current () with
  | None -> ()
  | Some b ->
      let total = Buf.bump b name n in
      Buf.emit b
        {
          kind = Sample;
          name;
          cat = "counter";
          ts = Buf.stamp b;
          tid = b.Buf.tid;
          args = [];
          value = total;
        }

(* --- sinks --------------------------------------------------------------- *)

module Sink = struct
  type t = out_channel

  let chrome oc = oc

  let arg : arg -> Json.t = function
    | `Int i -> Json.Int i
    | `Float f -> Json.Float f
    | `Str s -> Json.String s
    | `Bool b -> Json.Bool b

  let ph = function
    | Span_begin -> "B"
    | Span_end -> "E"
    | Instant -> "i"
    | Sample -> "C"

  let chrome_event e =
    let args kvs = [ ("args", Json.Obj kvs) ] in
    Json.Obj
      ([
         ("name", Json.String e.name);
         ("cat", Json.String (if e.cat = "" then "default" else e.cat));
         ("ph", Json.String (ph e.kind));
         ("ts", Json.Int e.ts);
         ("pid", Json.Int 1);
         ("tid", Json.Int e.tid);
       ]
      @ (if e.kind = Instant then [ ("s", Json.String "t") ] else [])
      @
      match e.kind with
      | Sample -> args [ ("value", Json.Int e.value) ]
      | (Instant | Span_begin) when e.args <> [] ->
          args (List.map (fun (k, v) -> (k, arg v)) e.args)
      | _ -> [])

  (* Merged buffers concatenate per-worker event runs; a stable sort by
     timestamp restores one global monotone timeline while preserving
     each tid's internal (already monotone) order, so B/E pairs stay
     well-nested per tid. *)
  let chrome_events buf =
    List.stable_sort (fun a b -> compare a.ts b.ts) (Buf.events buf)

  let write oc buf =
    output_string oc
      (Json.to_string
         (Json.Obj
            [ ("traceEvents", Json.List (List.map chrome_event (chrome_events buf))) ]))
end
