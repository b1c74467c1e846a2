(* The benchmark's own spans, recorded around each call it makes into a
   layer of the program, plus the spans the program already emits
   through Diag (pipeline [stage], [serve.build]).  Both kinds are kept
   in memory and folded into one forest: a program span nests under its
   Diag parent, or else under the innermost benchmark span that
   contains it in time.  Self time is a span's duration minus the
   durations of its direct children. *)

type t = {
  id : int;
  name : string;
  start : float;
  mutable stop : float;
  parent : int option;
}

let on = ref false
let next = ref 0
let stack : int list ref = ref []
let recorded : t list ref = ref []

let record name f =
  if not !on then f ()
  else begin
    let id = !next in
    incr next;
    let parent = match !stack with p :: _ -> Some p | [] -> None in
    let s = { id; name; start = Unix.gettimeofday (); stop = nan; parent } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* One node of the merged forest. *)
type node = {
  n_key : [ `Bench of int | `Prog of int ];
  n_name : string;
  n_start : float;
  n_stop : float;
  n_parent : [ `Bench of int | `Prog of int ] option;
}

let field name (ev : Diag.ev) =
  List.assoc_opt name ev.Diag.ev_fields

(* Program spans from Diag begin/end records.  A pipeline [stage] span
   is named after its stage ([stage.poly], ...). *)
let prog_spans (events : Diag.ev list) bench =
  let begins = Hashtbl.create 64 in
  let nodes = ref [] in
  let strip suffix s =
    let ls = String.length s and lx = String.length suffix in
    if ls > lx && String.sub s (ls - lx) lx = suffix then
      Some (String.sub s 0 (ls - lx))
    else None
  in
  List.iter
    (fun (ev : Diag.ev) ->
      match ev.Diag.ev_span with
      | None -> ()
      | Some id -> (
          match strip ".begin" ev.ev_name with
          | Some base ->
              let name =
                match (base, field "stage" ev) with
                | "stage", Some (Diag.String st) -> "stage." ^ st
                | _ -> base
              in
              Hashtbl.replace begins id (name, ev.ev_ts, ev.ev_parent)
          | None -> (
              match (strip ".end" ev.ev_name, Hashtbl.find_opt begins id) with
              | Some _, Some (name, start, parent) ->
                  nodes := (id, name, start, ev.ev_ts, parent) :: !nodes
              | _ -> ())))
    events;
  (* Innermost benchmark span containing [start, stop]. *)
  let enclosing start stop =
    List.fold_left
      (fun best s ->
        if s.start <= start && s.stop >= stop then
          match best with
          | Some b when b.start >= s.start -> best
          | _ -> Some s
        else best)
      None bench
  in
  List.rev_map
    (fun (id, name, start, stop, parent) ->
      let n_parent =
        match parent with
        | Some p -> Some (`Prog p)
        | None -> Option.map (fun s -> `Bench s.id) (enclosing start stop)
      in
      { n_key = `Prog id; n_name = name; n_start = start; n_stop = stop; n_parent })
    !nodes

let forest events =
  let bench = List.rev !recorded in
  List.map
    (fun s ->
      {
        n_key = `Bench s.id;
        n_name = s.name;
        n_start = s.start;
        n_stop = s.stop;
        n_parent = Option.map (fun p -> `Bench p) s.parent;
      })
    bench
  @ prog_spans events bench

type summary = { count : int; total : float; self : float }

(* Per span name: count, total duration and self time, sorted by self
   time (largest first). *)
let self_times nodes =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun n ->
      match n.n_parent with
      | Some p ->
          let d = n.n_stop -. n.n_start in
          Hashtbl.replace child_time p
            (d +. Option.value ~default:0. (Hashtbl.find_opt child_time p))
      | None -> ())
    nodes;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun n ->
      let d = n.n_stop -. n.n_start in
      let self =
        d -. Option.value ~default:0. (Hashtbl.find_opt child_time n.n_key)
      in
      let s =
        Option.value
          ~default:{ count = 0; total = 0.; self = 0. }
          (Hashtbl.find_opt by_name n.n_name)
      in
      Hashtbl.replace by_name n.n_name
        { count = s.count + 1; total = s.total +. d; self = s.self +. self })
    nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> compare b.self a.self)

let key_json = function
  | `Bench i -> Printf.sprintf "\"b%d\"" i
  | `Prog i -> Printf.sprintf "\"p%d\"" i

(* One JSON object per span, written when the run ends. *)
let write path nodes =
  let oc = open_out path in
  List.iter
    (fun n ->
      Printf.fprintf oc
        "{\"id\": %s, \"name\": %S, \"start\": %.6f, \"end\": %.6f, \
         \"parent\": %s}\n"
        (key_json n.n_key) n.n_name n.n_start n.n_stop
        (match n.n_parent with Some p -> key_json p | None -> "null"))
    nodes;
  close_out oc

(* The nodes named [root] and everything nested under them. *)
let under root nodes =
  let by_key = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace by_key n.n_key n) nodes;
  let rec inside n =
    n.n_name = root
    ||
    match n.n_parent with
    | Some p -> ( match Hashtbl.find_opt by_key p with Some pn -> inside pn | None -> false)
    | None -> false
  in
  List.filter inside nodes
