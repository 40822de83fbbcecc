#include "util/parallel.hh"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace av::util {

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    const std::size_t threads = std::min<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()), n);
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::vector<std::exception_ptr> errors(threads);
    const auto worker = [&](std::size_t w) {
        try {
            for (std::size_t i = w; i < n; i += threads)
                fn(i);
        } catch (...) {
            // Forwarded to the caller after every thread joined.
            errors[w] = std::current_exception();
        }
    };
    {
        // jthreads join on scope exit, also when spawning one fails.
        std::vector<std::jthread> pool;
        pool.reserve(threads - 1);
        for (std::size_t w = 1; w < threads; ++w)
            pool.emplace_back(worker, w);
        worker(0);
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

} // namespace av::util
