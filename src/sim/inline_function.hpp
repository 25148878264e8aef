// Move-only small-buffer callable.
//
// libstdc++'s std::function keeps a capture inline only when it is
// trivially copyable and at most 16 bytes; anything holding a shared_ptr,
// a nested std::function or an RPC responder costs a heap cell per
// closure. InlineFunction applies the PayloadBox rule instead (DESIGN.md
// §11): a callable rides inline when its size, alignment and nothrow move
// permit, and only larger ones fall back to one heap cell. It is
// move-only, so captures may be move-only too.
//
// Used where closures are created per request: kernel event slots
// (Simulation::Callback), RPC call completions and admission callbacks.
// Code on those paths static_asserts that its closures satisfy
// stores_inline<F>(), so a capture that grows past the budget fails the
// build instead of silently allocating.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace riot::sim {

/// Inline budget of an InlineFunction: with the ops pointer the whole
/// callable is one 64-byte cache line.
inline constexpr std::size_t kInlineCallableBytes = 56;

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  /// True when F is stored in the inline buffer (no heap cell).
  template <typename F>
  static constexpr bool stores_inline() {
    return sizeof(F) <= kInlineCallableBytes && alignof(F) <= kAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

  InlineFunction() noexcept = default;

  /// Implicit from any callable, like std::function. A null function
  /// pointer or an empty std::function yields an empty InlineFunction.
  template <typename F, typename D = std::decay_t<F>>
    requires(!std::same_as<D, InlineFunction> &&
             std::is_invocable_r_v<R, D&, Args...>)
  InlineFunction(F&& f) {  // NOLINT: implicit by design
    if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D> ||
                  std::is_same_v<D, std::function<R(Args...)>>) {
      if (!f) return;
    }
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
    }
    ops_ = &kOps<D>;
  }

  InlineFunction(InlineFunction&& other) noexcept { steal(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    if (ops_ == nullptr) throw std::bad_function_call();
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  // relocate (move into dst, destroy src) and destroy are null for
  // trivially copyable inline captures — most closures, which hold only
  // pointers and ids — so moving one is a buffer copy, not a call.
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr Ops make_ops() {
    if constexpr (!stores_inline<D>()) {
      return {[](void* s, Args&&... args) -> R {
                return std::invoke(**std::launder(static_cast<D**>(s)),
                                   std::forward<Args>(args)...);
              },
              [](void* dst, void* src) noexcept {
                ::new (dst) D*(*std::launder(static_cast<D**>(src)));
              },
              [](void* s) noexcept {
                delete *std::launder(static_cast<D**>(s));
              }};
    } else {
      constexpr auto invoke = [](void* s, Args&&... args) -> R {
        return std::invoke(*std::launder(static_cast<D*>(s)),
                           std::forward<Args>(args)...);
      };
      if constexpr (std::is_trivially_copyable_v<D>) {
        return {invoke, nullptr, nullptr};
      } else {
        return {invoke,
                [](void* dst, void* src) noexcept {
                  D* from = std::launder(static_cast<D*>(src));
                  ::new (dst) D(std::move(*from));
                  from->~D();
                },
                [](void* s) noexcept {
                  std::launder(static_cast<D*>(s))->~D();
                }};
      }
    }
  }

  template <typename D>
  static constexpr Ops kOps = make_ops<D>();

  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  void steal(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    if (other.ops_->relocate != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineCallableBytes);
    }
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  // Zeroed so the whole-buffer copy in steal() never reads indeterminate
  // bytes past a smaller capture.
  alignas(kAlign) std::byte buf_[kInlineCallableBytes]{};
  const Ops* ops_ = nullptr;
};

}  // namespace riot::sim
