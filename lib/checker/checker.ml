(* Facade: the correctness harness — deterministic scenario generation
   ({!Scenario}), the workload families and their reference oracles
   ({!Families}), the ILFD references ({!Reference}), the
   differential/metamorphic oracle ({!Oracle}),
   greedy counterexample minimisation ({!Shrink}) and the check/soak
   driver ({!Harness}). *)

module Scenario = Scenario
module Families = Families
module Reference = Reference
module Oracle = Oracle
module Shrink = Shrink
module Harness = Harness
