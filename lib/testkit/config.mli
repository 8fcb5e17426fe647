(** Seed and case-count plumbing for the randomized test harness.

    Both knobs come from the environment so a failure seen anywhere (CI, a
    teammate's machine, the fuzz bench) is reproducible with a one-line
    command:

    - [QCHECK_COUNT] — cases per property (default 100). [make test-fast]
      lowers it; [make test-full] keeps the default.
    - [MORPHQPV_SEED] — the root seed of the QCheck generator state. *)

(** [count ()] is the per-property case count ([QCHECK_COUNT], default 100). *)
val count : ?default:int -> unit -> int

(** [seed ()] is the root random seed ([MORPHQPV_SEED], default 4231). *)
val seed : ?default:int -> unit -> int

(** [rand ()] is a fresh [Random.State.t] seeded from {!seed} — pass it to
    [QCheck_alcotest.to_alcotest] or [QCheck.Gen.generate]. *)
val rand : unit -> Random.State.t

(** [repro ~exe] is the one-line command that replays the current
    seed/count configuration against the given executable. *)
val repro : exe:string -> string

(** [exe ()] is the running executable as [dune exec] names it: its path
    below the build context ([test/test_core.exe] for
    [_build/default/test/test_core.exe]), or [Sys.executable_name] outside
    a build tree. *)
val exe : unit -> string

(** [announce ()] prints the active seed, count and the repro command for
    {!exe} (call once at test-binary startup, before the alcotest runner
    takes over). *)
val announce : unit -> unit
