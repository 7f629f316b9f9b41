"""blamebox: Bayesian fault localization over autonomous skill executions.

A skill is an opaque test: running it yields success or failure plus a sensor
record and a function-call profile. From a database of successful runs the
package fits a recurrent-autoencoder observation model (failure times from
reconstruction-error statistics) and per-function Gaussian call-profile
fingerprints; a blame distribution over functions is updated after every
execution, and the next skill is chosen to maximize the expected information
gain about where the bug lives.
"""

__version__ = "0.1.0"

from .blame import (Belief, bayes_update, coverage_indices, entropy,
                    likelihood_vector)
from .core import (ExperienceDb, Fingerprint, FunctionRegistry, Observation,
                   SensorSeries, canonicalize_length, validate_observation)
from .errors import (BlameboxError, ConfigError, ExecutorError, FunctionIndexError,
                     KindError, ScenarioError, StoreError, ValidationError, VersionError)
from .fpf import BlameConfig, FpfModel, deviation_mass, fit_fpf
from .harness import (AnomalySpec, BUILT_IN_SCENARIOS, ScenarioConfig,
                      ScenarioResult, SensorSynthSpec, SimExecutor, SimSkillSpec,
                      SimWorld, built_in_scenario, candidate_set, gen_fingerprint,
                      gen_fingerprints, gen_sensor_suite, load_scenario, run_scenario,
                      simulate_execution)
from .mom import (ErrorStats, MomBundle, MomConfig, MomModel, detect_failure_time,
                  error_rows, error_series, fit_error_stats, init_model,
                  reconstruct, train)
from .planner import (GainEstimate, LoopStep, LoopTrace, PlannerConfig,
                      SkillCache, SkillExecutor, information_gain_stats,
                      run_testing_loop, select_skill)
from .store import (ReplayExecutor, Study, load_db, load_model, load_recorded,
                    load_study, save_db, save_model, save_recorded, save_study)

__all__ = [name for name in dir() if not name.startswith("_")]
