// Thread-safety annotations: compile-time race detection for the locking
// discipline the determinism contract rests on.
//
// The framework guarantees bit-identical dispositions for a (seed, lot,
// scenario) at any STF_THREADS. That guarantee is only as strong as the
// locking around the handful of pieces of genuinely shared mutable state:
// the worker pool's job/config state (core/parallel), the service's
// admission gate (service/admission), the telemetry registry
// (core/telemetry), and the FFT plan cache (dsp/fft). This header wraps Clang's Thread Safety Analysis
// attributes so that discipline is checked by the compiler -- a build with
// -DSIGTEST_THREAD_SAFETY=ON adds -Wthread-safety -Werror under clang, and
// any access to STF_GUARDED_BY state outside its mutex, or any call to an
// STF_REQUIRES function without the lock, fails the build. Under GCC (which
// has no such analysis) every macro expands to nothing and the stf::core
// lock types below behave exactly like the std types they wrap, so the
// annotated code compiles to the identical binary.
//
// Vocabulary (see DESIGN.md "Static analysis contract" for the annotation
// guide and the full map of which state each lock guards):
//
//   STF_CAPABILITY("mutex")   class is a lockable capability (stf::core::Mutex)
//   STF_GUARDED_BY(m)         member/global may only be touched holding m
//   STF_PT_GUARDED_BY(m)      pointee may only be touched holding m
//   STF_REQUIRES(m)           function must be called with m held
//                             (the *_locked() helper convention)
//   STF_ACQUIRE(m...) / STF_RELEASE(m...)   function acquires / releases m
//   STF_TRY_ACQUIRE(ok, m)    try-lock returning `ok` on success
//   STF_EXCLUDES(m)           function must NOT be called with m held
//                             (it will acquire m itself; prevents deadlock)
//   STF_ASSERT_CAPABILITY(m)  runtime claim that m is held (for code the
//                             analysis cannot follow, e.g. cv-wait lambdas)
//   STF_NO_THREAD_SAFETY_ANALYSIS  opt a function out (last resort; justify)
//
// Locking types: use stf::core::Mutex with stf::core::LockGuard (scoped,
// RAII) or stf::core::UniqueLock (deferred/early unlock + condition-variable
// waits via native()). std::mutex and std::lock_guard in libstdc++ carry no
// annotations, so guarded state behind them is invisible to the analysis;
// the conventions linter (tools/stf_analyze.py, rule raw-mutex) steers new
// code in src/core//src/dsp toward these wrappers.
#pragma once

#include <mutex>

// Clang exposes the analysis attributes behind __has_attribute; GCC defines
// __has_attribute too but not these attributes, so the probe degrades
// cleanly everywhere.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define STF_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#if !defined(STF_THREAD_ANNOTATION_)
#define STF_THREAD_ANNOTATION_(x)  // no analysis: annotations vanish
#endif

#define STF_CAPABILITY(x) STF_THREAD_ANNOTATION_(capability(x))
#define STF_SCOPED_CAPABILITY STF_THREAD_ANNOTATION_(scoped_lockable)
#define STF_GUARDED_BY(x) STF_THREAD_ANNOTATION_(guarded_by(x))
#define STF_PT_GUARDED_BY(x) STF_THREAD_ANNOTATION_(pt_guarded_by(x))
#define STF_ACQUIRED_BEFORE(...) \
  STF_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define STF_ACQUIRED_AFTER(...) \
  STF_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define STF_REQUIRES(...) \
  STF_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define STF_ACQUIRE(...) \
  STF_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define STF_RELEASE(...) \
  STF_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define STF_TRY_ACQUIRE(...) \
  STF_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define STF_EXCLUDES(...) STF_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define STF_ASSERT_CAPABILITY(x) \
  STF_THREAD_ANNOTATION_(assert_capability(x))
#define STF_RETURN_CAPABILITY(x) STF_THREAD_ANNOTATION_(lock_returned(x))
#define STF_NO_THREAD_SAFETY_ANALYSIS \
  STF_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace stf::core {

/// std::mutex with the capability annotation the analysis needs. Same
/// size/behavior as std::mutex on every compiler; native() exposes the
/// wrapped mutex for std::condition_variable waits.
class STF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() STF_ACQUIRE() { m_.lock(); }
  void unlock() STF_RELEASE() { m_.unlock(); }
  bool try_lock() STF_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Runtime no-op, compile-time claim that this mutex is held. Use inside
  /// condition-variable predicate lambdas: the analysis does not propagate
  /// lock state into lambda bodies, and wait() holds the lock whenever the
  /// predicate runs, so the claim is true by construction.
  void assert_held() const STF_ASSERT_CAPABILITY(this) {}

  /// The wrapped mutex, for std::condition_variable (via UniqueLock).
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// std::lock_guard over Mutex, annotated as a scoped capability so the
/// analysis tracks acquisition at construction and release at scope exit.
class STF_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) STF_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() STF_RELEASE() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// std::unique_lock over Mutex for condition-variable waits and early
/// unlock. Annotated like libc++'s unique_lock: the analysis tracks the
/// held/released state through unlock()/lock(), and the destructor releases
/// only if still held.
class STF_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) STF_ACQUIRE(m) : m_(m), lock_(m.native()) {}
  ~UniqueLock() STF_RELEASE() {}  // lock_ member releases iff still held
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() STF_ACQUIRE() { lock_.lock(); }
  void unlock() STF_RELEASE() { lock_.unlock(); }

  /// The wrapped std::unique_lock, for std::condition_variable::wait. The
  /// wait releases and reacquires the mutex internally; from the analysis's
  /// point of view the lock is held throughout, which matches what the
  /// caller may assume before and after the call.
  std::unique_lock<std::mutex>& native() { return lock_; }

  /// The mutex this lock manages (for assert_held in wait predicates).
  Mutex& mutex() STF_RETURN_CAPABILITY(m_) { return m_; }

 private:
  Mutex& m_;
  std::unique_lock<std::mutex> lock_;
};

}  // namespace stf::core
