(* Facade: [Ilfd.t] is the ILFD type itself (from {!Def}), with the
   theory, derivation engines, tables and propositions as submodules.
   Derivation in production goes through {!Fixpoint}'s plans, for
   relations and single tuples alike; {!Apply}'s per-tuple scan is the
   reference they are held to. *)

include Def

module Encode = Encode
module Theory = Theory
module Fixpoint = Fixpoint
module Apply = Apply
module Table = Table
module Props = Props
module Mine = Mine
