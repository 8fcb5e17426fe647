(* Structured, leveled logging: one JSON object per line to a sink.

   Like [Span], logging is zero-cost when disabled: every log site is
   guarded by [enabled level] — a single atomic int read — and builds no
   field list, formats nothing and takes no lock on the disabled path.
   The sink is process-wide; lines are serialized under one mutex so
   pool domains never interleave bytes.

   Each line is a flat JSON object:

     {"ts":<unix seconds>,"level":"info","event":"request.finish",
      "req":"<request id>", ...fields}

   [req] is stamped automatically from the domain-local {!Context} when
   a request is in scope, so every line a request produces carries its
   id without threading it through the call tree.

   Enable with [MORPHQPV_LOG=<path>|stderr|-] (and optionally
   [MORPHQPV_LOG_LEVEL=debug|info|warn|error], default [info]) or
   {!configure} at run time. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type sink =
  [ `Stderr | `Stdout | `File of string | `Fn of string -> unit | `Off ]

(* [threshold] doubles as the enabled switch: 100 (no level reaches it)
   means disabled, so [enabled] is one atomic load + compare *)
let disabled_threshold = 100
let threshold = Atomic.make disabled_threshold
let enabled level = severity level >= Atomic.get threshold

let lock = Mutex.create ()
let writer : (string -> unit) ref = ref (fun _ -> ())

let configure ?(level = Info) sink =
  Mutex.lock lock;
  (writer :=
     match sink with
     | `Off -> fun _ -> ()
     | `Stderr ->
         fun line ->
           output_string stderr line;
           output_char stderr '\n';
           flush stderr
     | `Stdout ->
         fun line ->
           print_string line;
           print_newline ()
     | `File path ->
         let oc =
           open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
         in
         fun line ->
           output_string oc line;
           output_char oc '\n';
           flush oc
     | `Fn f -> f);
  Atomic.set threshold
    (match sink with `Off -> disabled_threshold | _ -> severity level);
  Mutex.unlock lock

(* ------------------------------ lines -------------------------------- *)

let line level event fields =
  let req =
    match Context.current () with
    | Some req when not (List.mem_assoc "req" fields) ->
        [ ("req", Jsonx.Str req) ]
    | _ -> []
  in
  Jsonx.to_string
    (Jsonx.Obj
       ([
          ("ts", Jsonx.Num (Unix.gettimeofday ()));
          ("level", Jsonx.Str (level_name level));
          ("event", Jsonx.Str event);
        ]
       @ req @ fields))

let emit level event fields =
  if enabled level then begin
    let s = line level event fields in
    Mutex.lock lock;
    (try !writer s with exn -> Mutex.unlock lock; raise exn);
    Mutex.unlock lock
  end

(* -------------------------- env bootstrap ----------------------------- *)

let () =
  match Sys.getenv_opt "MORPHQPV_LOG" with
  | None | Some "" -> ()
  | Some dest ->
      let level =
        Option.value ~default:Info
          (Option.bind (Sys.getenv_opt "MORPHQPV_LOG_LEVEL") level_of_string)
      in
      let sink =
        match dest with
        | "stderr" -> `Stderr
        | "-" | "stdout" -> `Stdout
        | path -> `File path
      in
      (* an unwritable MORPHQPV_LOG path must not kill the process *)
      (try configure ~level sink with Sys_error _ -> configure ~level `Stderr)
