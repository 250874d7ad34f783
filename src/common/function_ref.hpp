#pragma once
// A non-owning reference to a callable, for parameters that only call it
// before returning. Unlike std::function it never copies the callable, so
// handing a capturing lambda to Node::parallel or parallel_blocks costs no
// heap allocation whatever its capture size. The referenced callable must
// outlive every call; a lambda argument lives until the end of the full
// expression, which covers the call it is passed to.

#include <memory>
#include <type_traits>
#include <utility>

namespace ncar {

template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
public:
  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                         std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace ncar
